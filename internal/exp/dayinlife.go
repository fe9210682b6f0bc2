package exp

import (
	"fmt"

	"burstlink/internal/core"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// DayInLife composes a whole usage day from the paper's workload set —
// browsing, conferencing, streaming at two resolutions, office work — and
// prices it with and without BurstLink, translating the paper's
// per-workload percentages into the number every tablet reviewer quotes:
// hours of battery.
func DayInLife() (Table, error) {
	e := newEnv()
	type segment struct {
		name  string
		hours float64
		base  func() (trace.Timeline, power.Load, error)
		bl    func() (trace.Timeline, power.Load, error)
	}

	uiSeg := func(w workload.UIWorkload) (func() (trace.Timeline, power.Load, error), func() (trace.Timeline, power.Load, error)) {
		load := power.Load{Demand: 1, PanelRatio: 1}
		return func() (trace.Timeline, power.Load, error) {
				tl, err := workload.UIConventional(e.p, w, units.FHD, 60)
				return tl, load, err
			}, func() (trace.Timeline, power.Load, error) {
				tl, err := workload.UIBurst(e.p, w, units.FHD, 60)
				return tl, load, err
			}
	}
	videoSeg := func(s pipeline.Scenario) (func() (trace.Timeline, power.Load, error), func() (trace.Timeline, power.Load, error)) {
		load := power.LoadOf(e.p, s)
		return func() (trace.Timeline, power.Load, error) {
				tl, err := pipeline.Conventional(e.p, s)
				return tl, load, err
			}, func() (trace.Timeline, power.Load, error) {
				tl, err := core.BurstLink(e.p, s)
				return tl, load, err
			}
	}

	browseBase, browseBL := uiSeg(workload.WebBrowsing())
	confBase, confBL := uiSeg(workload.VideoConferencing())
	officeBase, officeBL := uiSeg(workload.MobileMark())
	fhdBase, fhdBL := videoSeg(pipeline.Planar(units.FHD, 60, 30))
	k4Base, k4BL := videoSeg(pipeline.Planar(units.R4K, 60, 60))

	segments := []segment{
		{"web browsing", 3, browseBase, browseBL},
		{"video conferencing", 1, confBase, confBL},
		{"office (MobileMark)", 2, officeBase, officeBL},
		{"FHD 30FPS streaming", 2, fhdBase, fhdBL},
		{"4K 60FPS streaming", 1, k4Base, k4BL},
	}

	t := Table{
		ID:     "dayinlife",
		Title:  "A 9-hour usage day, baseline vs BurstLink",
		Header: []string{"Segment", "Hours", "Baseline", "BurstLink", "Saving"},
	}
	row := func(name string, hours, base, bl float64) []string {
		return []string{name, fmt.Sprintf("%.0f", hours), mw(base), mw(bl), pct(1 - bl/base)}
	}
	var eBase, eBL float64 // mWh
	var totalHours float64
	for _, seg := range segments {
		tb, lb, err := seg.base()
		if err != nil {
			return t, err
		}
		tl, ll, err := seg.bl()
		if err != nil {
			return t, err
		}
		pb := float64(e.eval(tb, lb).Average)
		pl := float64(e.eval(tl, ll).Average)
		eBase += pb * seg.hours
		eBL += pl * seg.hours
		totalHours += seg.hours
		t.Rows = append(t.Rows, row(seg.name, seg.hours, pb, pl))
	}
	bat := workload.SurfaceProBattery()
	avgBase := units.Power(eBase / totalHours)
	avgBL := units.Power(eBL / totalHours)
	t.Rows = append(t.Rows, row("whole day", totalHours, float64(avgBase), float64(avgBL)))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"battery at this mix: %s baseline vs %s with BurstLink",
		workload.LifeString(bat.Life(avgBase)), workload.LifeString(bat.Life(avgBL))))
	return t, nil
}
