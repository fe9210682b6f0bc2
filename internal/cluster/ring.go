// Package cluster turns a single blkd node into a fleet. It is built on
// the one property the rest of the repository works hard to maintain:
// every response is a pure, byte-pinned function of its canonical
// request key. That makes scale-out almost embarrassingly easy — any
// node can compute any key, and two nodes given the same key produce
// byte-identical bodies — so the only real design problem is cache
// locality: keeping each canonical scenario's cache entry (result body
// and the delta-simulation segments under it) on exactly one node, so
// hit ratios survive the move from one node to N.
//
// The package provides the two pieces that problem needs:
//
//   - Ring, a consistent-hash ring with virtual nodes: canonical cache
//     keys map onto member nodes such that membership changes move only
//     the keys owned by the added or removed node (minimal movement),
//     and virtual nodes keep the per-node key share balanced;
//   - Router, a thin HTTP front that canonicalizes each request exactly
//     as the backend would and forwards it to the ring owner of its
//     cache key (`blkd -route node1,node2,...`).
//
// A restarted or newly added node starts cold and refills its caches
// from the traffic it owns; no cache state moves between nodes.
//
// Clients, blkload included, reach a fleet through the router exactly
// as they would reach a single node.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member: the router's ring
// always uses it, and NewRing selects it when a caller passes vnodes <=
// 0. 128 points per node keeps the deterministic per-node key share
// well inside the ±20% balance band the ring's property tests pin.
const DefaultVNodes = 128

// point is one virtual node: a position on the 64-bit hash circle owned
// by a member node.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over member node names
// (base URLs, typically) with vnodes virtual nodes per member. A key's
// owner is the member owning the first virtual node at or clockwise
// after the key's hash. Rings are values: WithNode and WithoutNode
// return new rings, so concurrent readers never observe a membership
// change mid-lookup.
type Ring struct {
	vnodes int
	nodes  []string // sorted member names; OwnerIndex indexes this
	points []point  // sorted by hash
}

// NewRing builds a ring over the given members. Order does not matter
// (members are sorted, so two rings over the same set are identical);
// duplicates and empty names are rejected. vnodes <= 0 selects
// DefaultVNodes.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	nodes := append([]string(nil), members...)
	sort.Strings(nodes)
	for i, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && nodes[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate member %q", n)
		}
	}
	r := &Ring{vnodes: vnodes, nodes: nodes}
	r.points = make([]point, 0, len(nodes)*vnodes)
	for ni, n := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: ringHash(n + "#" + strconv.Itoa(v)), node: ni})
		}
	}
	// Ties between distinct vnode labels are cryptographically
	// negligible, but the sort is made total anyway so ring construction
	// is deterministic under any input.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// ringHash maps a label onto the hash circle: the first 8 bytes of its
// SHA-256, the same hash family the canonical request keys already use.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the sorted member names. The slice is a copy. Nodes,
// WithNode and WithoutNode are called by ring_test.go today; they are
// kept for the router's planned node failover (ROADMAP.md), which
// rebuilds its ring with them.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// OwnerIndex returns the index (into Nodes) of the member owning key:
// the member of the first virtual node at or clockwise after the key's
// hash position.
func (r *Ring) OwnerIndex(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].node
}

// Owner returns the member name owning key.
func (r *Ring) Owner(key string) string { return r.nodes[r.OwnerIndex(key)] }

// WithNode returns a new ring with node added.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewRing(append(r.Nodes(), node), r.vnodes)
}

// WithoutNode returns a new ring with node removed.
func (r *Ring) WithoutNode(node string) (*Ring, error) {
	rest := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			rest = append(rest, n)
		}
	}
	if len(rest) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: member %q not in ring", node)
	}
	return NewRing(rest, r.vnodes)
}
