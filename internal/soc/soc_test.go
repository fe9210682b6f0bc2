package soc

import (
	"testing"
	"testing/quick"
	"time"

	"burstlink/internal/sim"
)

func TestCStateStrings(t *testing.T) {
	cases := map[PackageCState]string{
		C0: "C0", C2: "C2", C7: "C7", C7Prime: "C7'", C8: "C8", C9: "C9", C10: "C10",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := PackageCState(99).String(); got != "C?(99)" {
		t.Errorf("invalid state string = %q", got)
	}
}

// All lists every defined package C-state in increasing depth, the
// reference set these tests sweep.
func All() []PackageCState {
	return []PackageCState{C0, C2, C3, C6, C7, C7Prime, C8, C9, C10}
}

func TestDeeperThanIsTotalOrder(t *testing.T) {
	states := All()
	for i := 1; i < len(states); i++ {
		if !states[i].DeeperThan(states[i-1]) {
			t.Errorf("%v should be deeper than %v", states[i], states[i-1])
		}
	}
}

// DRAMSelfRefresh reports whether DRAM is in self-refresh in package
// state c. Per Table 1, DRAM is active (CKE-High) only in C0 and C2.
func (c PackageCState) DRAMSelfRefresh() bool { return c >= C3 }

func TestDRAMSelfRefreshPerTable1(t *testing.T) {
	// Table 1: DRAM is active in C0 and C2, self-refresh from C3 down.
	for _, c := range []PackageCState{C0, C2} {
		if c.DRAMSelfRefresh() {
			t.Errorf("%v should have DRAM active", c)
		}
	}
	for _, c := range []PackageCState{C3, C6, C7, C7Prime, C8, C9, C10} {
		if !c.DRAMSelfRefresh() {
			t.Errorf("%v should have DRAM in self-refresh", c)
		}
	}
}

func TestLatenciesCoverAllStates(t *testing.T) {
	lat := Latencies()
	for _, c := range All() {
		l, ok := lat[c]
		if !ok {
			t.Fatalf("no latency for %v", c)
		}
		if c != C0 && (l.Enter <= 0 || l.Exit <= 0) {
			t.Errorf("%v latency not positive: %+v", c, l)
		}
	}
	// Deeper states must not be faster to exit than C2.
	if lat[C9].Exit <= lat[C2].Exit {
		t.Error("C9 exit should cost more than C2 exit")
	}
}

func TestResolveC0WhenExecuting(t *testing.T) {
	cs := ComponentSet{}
	if got := Resolve(cs); got != C0 {
		t.Fatalf("default (all active) = %v, want C0", got)
	}
	cs = allIdle()
	cs[Graphics] = CompActive
	if got := Resolve(cs); got != C0 {
		t.Fatalf("graphics active = %v, want C0", got)
	}
}

// allIdle returns a component set with every IP as deep as possible.
func allIdle() ComponentSet {
	cs := ComponentSet{}
	for _, c := range Components() {
		cs[c] = CompPowerGated
	}
	cs[AlwaysOn] = CompActive
	return cs
}

func TestResolveC2OnDRAMTraffic(t *testing.T) {
	cs := allIdle()
	cs[MemCtl] = CompActive
	cs[DRAMDev] = CompActive
	cs[DispCtl] = CompActive
	if got := Resolve(cs); got != C2 {
		t.Fatalf("DC fetching from DRAM = %v, want C2", got)
	}
}

func TestResolveC7BypassDecode(t *testing.T) {
	// §4.1: VD decoding into the DC buffer with DRAM in self-refresh → C7.
	cs := allIdle()
	cs[VideoDec] = CompActive
	cs[DispCtl] = CompActive
	cs[EDPHost] = CompActive
	if got := Resolve(cs); got != C7 {
		t.Fatalf("bypass decode = %v, want C7", got)
	}
}

func TestResolveC7PrimeVDClockGated(t *testing.T) {
	// §4.1: DC draining to the DRFB with the VD clock-gated → C7'.
	cs := allIdle()
	cs[VideoDec] = CompClockGated
	cs[DispCtl] = CompActive
	cs[EDPHost] = CompActive
	if got := Resolve(cs); got != C7Prime {
		t.Fatalf("drain with VD gated = %v, want C7'", got)
	}
}

func TestResolveC8OnlyDCOn(t *testing.T) {
	cs := allIdle()
	cs[DispCtl] = CompIdle
	cs[EDPHost] = CompIdle
	if got := Resolve(cs); got != C8 {
		t.Fatalf("DC+display IO only = %v, want C8", got)
	}
}

func TestResolveC9AllIPsOff(t *testing.T) {
	cs := allIdle()
	cs[Panel] = CompActive // panel self-refreshing from its RFB
	if got := Resolve(cs); got != C9 {
		t.Fatalf("all IPs off, panel in PSR = %v, want C9", got)
	}
}

func TestResolveC10PanelOff(t *testing.T) {
	if got := Resolve(allIdle()); got != C10 {
		t.Fatalf("panel off = %v, want C10", got)
	}
}

func TestResolveMonotoneInComponentDepth(t *testing.T) {
	// Property: deepening any single component never makes the package
	// state shallower.
	f := func(seed uint32) bool {
		cs := ComponentSet{}
		s := seed
		for _, c := range Components() {
			s = s*1664525 + 1013904223
			cs[c] = CompState(s % 4)
		}
		before := Resolve(cs)
		for _, c := range Components() {
			if cs.Get(c) == CompPowerGated {
				continue
			}
			deeper := cs.Clone()
			deeper[c] = cs.Get(c) + 1
			if Resolve(deeper) < before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStockFirmwareClampsC9WhileDisplayActive(t *testing.T) {
	active := true
	fw := StockFirmware{DisplayActive: func() bool { return active }}
	if got := fw.Clamp(C9); got != C8 {
		t.Fatalf("clamp(C9) while display active = %v, want C8", got)
	}
	active = false
	if got := fw.Clamp(C9); got != C9 {
		t.Fatalf("clamp(C9) while display idle = %v, want C9", got)
	}
	if got := fw.Clamp(C2); got != C2 {
		t.Fatalf("clamp(C2) = %v, want C2", got)
	}
}

func TestPMUTransitions(t *testing.T) {
	var eng sim.Engine
	pmu := NewPMU(&eng, nil)
	var seen []Transition
	pmu.Listen(func(tr Transition) { seen = append(seen, tr) })

	if pmu.State() != C0 {
		t.Fatalf("initial state = %v, want C0", pmu.State())
	}
	// Cores and graphics go idle; VD/DC keep DRAM busy → C2.
	eng.Schedule(time.Millisecond, "idle cores", func() {
		pmu.SetComponents(ComponentSet{
			Cores: CompPowerGated, Graphics: CompPowerGated,
			MemCtl: CompActive, DRAMDev: CompActive,
		})
	})
	eng.Run()
	if pmu.State() != C2 {
		t.Fatalf("state = %v, want C2", pmu.State())
	}
	if len(seen) != 1 || seen[0].From != C0 || seen[0].To != C2 || seen[0].At != time.Millisecond {
		t.Fatalf("transition = %+v", seen)
	}
}

func TestPMUNoTransitionOnSameState(t *testing.T) {
	var eng sim.Engine
	pmu := NewPMU(&eng, nil)
	count := 0
	pmu.Listen(func(Transition) { count++ })
	pmu.SetComponent(Cores, CompActive) // still C0
	pmu.reevaluate()
	if count != 0 {
		t.Fatalf("spurious transitions: %d", count)
	}
}

func TestPMUFirmwareCap(t *testing.T) {
	var eng sim.Engine
	active := true
	pmu := NewPMU(&eng, StockFirmware{DisplayActive: func() bool { return active }})
	idle := allIdle()
	idle[Panel] = CompActive
	pmu.SetComponents(idle)
	if pmu.State() != C8 {
		t.Fatalf("state with pending display = %v, want C8 (firmware clamp)", pmu.State())
	}
	active = false
	pmu.reevaluate()
	if pmu.State() != C9 {
		t.Fatalf("state after display idle = %v, want C9", pmu.State())
	}
}

func TestComponentStrings(t *testing.T) {
	if Cores.String() != "Cores" || Panel.String() != "Panel" {
		t.Fatal("component names wrong")
	}
	if Component(99).String() != "Component(99)" {
		t.Fatal("out-of-range component name wrong")
	}
	if CompActive.String() != "active" || CompPowerGated.String() != "power-gated" {
		t.Fatal("comp state names wrong")
	}
	if CompState(9).String() != "CompState(9)" {
		t.Fatal("out-of-range comp state name wrong")
	}
}

func TestComponentSetClone(t *testing.T) {
	cs := ComponentSet{Cores: CompIdle}
	cl := cs.Clone()
	cl[Cores] = CompPowerGated
	if cs.Get(Cores) != CompIdle {
		t.Fatal("clone aliases original")
	}
}
