package soc

import (
	"time"

	"burstlink/internal/sim"
)

// Firmware is the PMU policy layer (Pcode in Intel parlance, §4.4). It can
// veto or deepen the package state the hardware resolution computed.
// BurstLink's three firmware changes are implemented by core.Firmware; the
// stock policy is StockFirmware.
type Firmware interface {
	// Name identifies the firmware build in traces.
	Name() string
	// Clamp maps the state resolved from component conditions to the
	// state the PMU actually enters.
	Clamp(resolved PackageCState) PackageCState
}

// StockFirmware is the conventional Pcode policy: it enters exactly the
// state the hardware conditions permit, except that it never enters C9
// while the display pipeline still has undelivered frame data, because a
// conventional panel must be fed for the whole frame window (§2.5).
type StockFirmware struct {
	// DisplayActive reports whether the panel still needs host-side frame
	// delivery this window. When true, the deepest reachable state is C8.
	DisplayActive func() bool
}

// Name implements Firmware.
func (StockFirmware) Name() string { return "stock" }

// Clamp implements Firmware.
func (f StockFirmware) Clamp(resolved PackageCState) PackageCState {
	if resolved >= C9 && f.DisplayActive != nil && f.DisplayActive() {
		return C8
	}
	return resolved
}

// Transition is one package-state change observed by a PMU listener.
type Transition struct {
	At       time.Duration
	From, To PackageCState
}

// PMU is the power-management unit. It owns the component-state registry,
// resolves package C-states, applies the firmware policy, and notifies
// listeners of transitions on the simulation clock.
type PMU struct {
	eng           *sim.Engine
	fw            Firmware
	comps         ComponentSet
	state         PackageCState
	listeners     []func(Transition)
	compListeners []func(Component, CompState)
}

// NewPMU builds a PMU in C0 with all components active.
func NewPMU(eng *sim.Engine, fw Firmware) *PMU {
	if fw == nil {
		fw = StockFirmware{}
	}
	return &PMU{eng: eng, fw: fw, comps: ComponentSet{}, state: C0}
}

// State returns the current package C-state.
func (p *PMU) State() PackageCState { return p.state }

// Listen registers fn to be called on every package-state transition.
func (p *PMU) Listen(fn func(Transition)) { p.listeners = append(p.listeners, fn) }

// ListenComponents registers fn to be called whenever a component's
// power state actually changes (used by residency trackers).
func (p *PMU) ListenComponents(fn func(Component, CompState)) {
	p.compListeners = append(p.compListeners, fn)
}

func (p *PMU) setComp(c Component, s CompState) {
	if p.comps.Get(c) == s {
		if _, ok := p.comps[c]; ok {
			return
		}
	}
	p.comps[c] = s
	for _, fn := range p.compListeners {
		fn(c, s)
	}
}

// SetComponent updates one component's power state and re-evaluates the
// package state immediately.
func (p *PMU) SetComponent(c Component, s CompState) {
	p.setComp(c, s)
	p.reevaluate()
}

// SetComponents applies several component updates atomically, then
// re-evaluates once — mirroring how the hardware PMU samples idle
// conditions.
func (p *PMU) SetComponents(updates ComponentSet) {
	for c, s := range updates {
		p.setComp(c, s)
	}
	p.reevaluate()
}

func (p *PMU) reevaluate() {
	next := p.fw.Clamp(Resolve(p.comps))
	if next == p.state {
		return
	}
	tr := Transition{At: p.eng.Now(), From: p.state, To: next}
	p.state = next
	for _, fn := range p.listeners {
		fn(tr)
	}
}
