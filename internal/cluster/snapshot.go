package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"burstlink/internal/cache"
	"burstlink/internal/power"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
)

// SnapshotVersion is the current snapshot wire version. Decoding rejects
// any other version: a snapshot is a cache transplant, and a silently
// misread one would poison a node with values that no longer match their
// keys.
const SnapshotVersion = 2

// ErrSnapshotVersion marks a snapshot whose wire version is not the one
// this binary speaks. Check with errors.Is; the wrapping SnapshotError
// carries the versions seen.
var ErrSnapshotVersion = errors.New("snapshot version mismatch")

// SnapshotError is the typed failure for a snapshot that could not be
// encoded or decoded: a truncated or corrupt gob stream, an entry whose
// concrete type is not gob-registered in this binary, or a version
// mismatch (Unwrap matches ErrSnapshotVersion in that case). Decode
// failures are total — the caller's caches see zero entries, never a
// partial transplant.
type SnapshotError struct {
	// Op is the failing stage: "decode" or "encode".
	Op  string
	Err error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("cluster: snapshot %s: %v", e.Op, e.Err)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// Snapshot is a node's exported cache state: the scenario result cache
// (canonical key → response body) and the delta-simulation segment cache
// under it, both in least-→most-recently-used order so an import
// reproduces recency (and therefore future eviction order) exactly.
//
// Determinism is what makes the transplant sound: every cached value is
// a pure function of its canonical key, so a value computed on one node
// is bit-identical to what any other node would compute for that key —
// importing a snapshot can change when work happens, never what the
// wire carries. The snapshot's own gob bytes are not canonical (gob map
// encoding is unordered); equality lives at the decoded-value level,
// which is the level the caches operate on.
type Snapshot struct {
	Version int
	// Node is the exporting node's id, carried for operator forensics.
	Node string
	// Results are the scenario result cache entries (response bodies).
	Results []cache.EntryOf[[]byte]
	// Segments are the segment cache entries whose value types are gob-
	// encodable; SegmentsSkipped counts entries that were not (they
	// rewarm on demand — determinism recomputes them bit-identically).
	Segments        []cache.EntryOf[any]
	SegmentsSkipped int
}

// The segment cache's value types cross the gob boundary as interface
// values, which requires registering every concrete type a session run
// can cache: jitter-buffer delivery stats, period timelines, and
// per-period power evaluations. Types missing from this list (e.g. the
// functional pipeline's synthetic codec streams, which never flow
// through blkd) are filtered at encode time, not failed on.
func init() {
	gob.Register(stream.Stats{})
	gob.Register(trace.Timeline{})
	gob.Register(power.PeriodEval{})
}

// filterSegments drops entries whose values gob cannot encode, returning
// the encodable subset and the dropped count. Trial-encoding entry by
// entry keeps one exotic value from discarding the whole snapshot.
func filterSegments(entries []cache.EntryOf[any]) ([]cache.EntryOf[any], int) {
	kept := make([]cache.EntryOf[any], 0, len(entries))
	skipped := 0
	probe := gob.NewEncoder(io.Discard)
	for _, e := range entries {
		if err := probe.Encode(&e); err != nil {
			// A failed encoder may be wedged; start a fresh probe.
			probe = gob.NewEncoder(io.Discard)
			skipped++
			continue
		}
		kept = append(kept, e)
	}
	return kept, skipped
}

// Encode writes the snapshot to w. Unencodable segment values are
// filtered (counted in SegmentsSkipped), never fatal.
func (s *Snapshot) Encode(w io.Writer) error {
	out := *s
	out.Version = SnapshotVersion
	out.Segments, out.SegmentsSkipped = filterSegments(s.Segments)
	out.SegmentsSkipped += s.SegmentsSkipped
	if err := gob.NewEncoder(w).Encode(&out); err != nil {
		return &SnapshotError{Op: "encode", Err: err}
	}
	return nil
}

// DecodeSnapshot reads one snapshot from r, rejecting unknown versions,
// truncated or corrupt streams, and entries whose concrete types are
// not registered in this binary. Every failure is a *SnapshotError and
// returns a nil snapshot: nothing partial ever reaches a cache.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, &SnapshotError{Op: "decode", Err: err}
	}
	if s.Version != SnapshotVersion {
		return nil, &SnapshotError{Op: "decode", Err: fmt.Errorf("%w: snapshot is v%d, this binary speaks v%d", ErrSnapshotVersion, s.Version, SnapshotVersion)}
	}
	return &s, nil
}
