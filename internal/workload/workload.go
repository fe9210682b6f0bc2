// Package workload builds the evaluation scenarios of §5.1 and §6: planar
// streaming at the paper's resolutions and frame rates, the five 360° VR
// streaming workloads, local high-rate video playback (Fig 14a), and the
// four non-video frame-based mobile workloads of Fig 14(b) — video
// capture, video conferencing, casual gaming, and MobileMark — together
// with their conventional and Frame-Bursting display schedulers.
package workload

import (
	"fmt"
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/vr"
)

// PlanarResolutions are the display resolutions of Figs 1/9/10/12/13.
func PlanarResolutions() []units.Resolution {
	return []units.Resolution{units.FHD, units.QHD, units.R4K, units.R5K}
}

// VRScenario builds the streaming scenario for one of the five VR
// workloads at the given per-eye panel resolution (Fig 11). The display
// drives both eyes (2× per-eye width); the source is a 4K equirectangular
// stream; head-motion intensity (measured from the workload's synthetic
// trajectory) scales the GPU projection effort.
func VRScenario(w vr.Workload, perEye units.Resolution) (pipeline.Scenario, error) {
	tr, err := w.Trace()
	if err != nil {
		return pipeline.Scenario{}, err
	}
	intensity := vr.MotionIntensity(tr, 30)
	return pipeline.Scenario{
		Res:          units.Resolution{Width: 2 * perEye.Width, Height: perEye.Height},
		Refresh:      60,
		FPS:          60, // HMDs refresh every frame
		BPP:          24,
		VR:           true,
		VRSource:     units.R4K,
		MotionFactor: 1 + intensity,
	}, nil
}

// LocalPlayback builds the Fig 14(a) high-rate local playback scenarios:
// 4K@144 Hz, 4K@120 Hz, and 5K@60 Hz, with the video frame rate matching
// the refresh rate.
func LocalPlayback() []pipeline.Scenario {
	return []pipeline.Scenario{
		pipeline.Planar(units.R4K, 144, 144),
		pipeline.Planar(units.R4K, 120, 120),
		pipeline.Planar(units.R5K, 60, 60),
	}
}

// UIWorkload is a non-video frame-based workload (Fig 14b): it renders a
// single (graphics) plane at some update rate, with only part of the
// screen changing per update.
type UIWorkload struct {
	Name string
	// UpdateFPS is how many frames per second actually change.
	UpdateFPS units.FPS
	// RenderTime is the CPU+GPU time to produce one updated frame.
	RenderTime time.Duration
	// ActiveFraction is the fraction of refresh windows with an update
	// (browsing and office workloads idle between interactions).
	ActiveFraction float64
}

// The four Fig 14(b) workloads plus web browsing (Fig 4's first half).
// Parameters follow the workloads' published characterizations: capture
// and conferencing update every window; gaming ~45 FPS; MobileMark and
// browsing are bursty with long idle gaps.
func VideoCapture() UIWorkload {
	return UIWorkload{Name: "Video Capturing", UpdateFPS: 30, RenderTime: 2 * time.Millisecond, ActiveFraction: 1}
}

// VideoConferencing returns the video-chat workload.
func VideoConferencing() UIWorkload {
	return UIWorkload{Name: "Video Conferencing", UpdateFPS: 30, RenderTime: 2500 * time.Microsecond, ActiveFraction: 1}
}

// CasualGaming returns the casual-gaming workload.
func CasualGaming() UIWorkload {
	return UIWorkload{Name: "Casual Games", UpdateFPS: 30, RenderTime: 3 * time.Millisecond, ActiveFraction: 0.75}
}

// MobileMark returns the office-productivity benchmark workload.
func MobileMark() UIWorkload {
	return UIWorkload{Name: "MobileMark", UpdateFPS: 15, RenderTime: 4 * time.Millisecond, ActiveFraction: 0.5}
}

// WebBrowsing returns the browsing workload used in Fig 4's first phase.
func WebBrowsing() UIWorkload {
	return UIWorkload{Name: "Web Browsing", UpdateFPS: 10, RenderTime: 5 * time.Millisecond, ActiveFraction: 0.4}
}

// Fig14bWorkloads lists the four workloads of Fig 14(b).
func Fig14bWorkloads() []UIWorkload {
	return []UIWorkload{VideoCapture(), VideoConferencing(), CasualGaming(), MobileMark()}
}

// validate checks a UI workload against a panel refresh rate.
func (w UIWorkload) validate(refresh units.RefreshRate) error {
	if w.UpdateFPS <= 0 || w.UpdateFPS > units.FPS(refresh) {
		return fmt.Errorf("workload %q: update rate %d vs refresh %d", w.Name, w.UpdateFPS, refresh)
	}
	if w.ActiveFraction <= 0 || w.ActiveFraction > 1 {
		return fmt.Errorf("workload %q: active fraction %v", w.Name, w.ActiveFraction)
	}
	return nil
}

// idleWindowsPerUpdate returns the number of refresh windows between
// consecutive frame updates, folding the duty cycle in: a workload active
// half the time at 15 updates/s effectively updates once per 8 windows on
// a 60 Hz panel.
func idleWindowsPerUpdate(w UIWorkload, refresh units.RefreshRate) float64 {
	return float64(refresh)/(float64(w.UpdateFPS)*w.ActiveFraction) - 1
}

// uiFetchTime is the DC's fetch time for a UI plane. The DC clocks with
// the panel's pixel demand (it must stream the whole frame each window),
// so the fetch rate scales with display pixels at a nominal 30 Hz update
// anchor rather than with the workload's update rate.
func uiFetchTime(p pipeline.Platform, res units.Resolution) time.Duration {
	return p.FetchTime(res, 24, 30)
}

// psrEngageWindows is how many idle windows the conventional stack keeps
// re-streaming before its PSR idle-detection engages.
const psrEngageWindows = 2.0

// UIConventional produces one update period of the workload on the
// conventional pipeline (§6.5): render in C0, then the DC re-fetches the
// frame buffer from DRAM and streams it to the panel **every refresh
// window** — without dirty-frame tracking the conventional single-plane
// path keeps the DC, eDP, and DRAM path busy whether or not anything
// changed, which is precisely the waste Frame Bursting removes.
func UIConventional(p pipeline.Platform, w UIWorkload, res units.Resolution, refresh units.RefreshRate) (trace.Timeline, error) {
	if err := w.validate(refresh); err != nil {
		return trace.Timeline{}, err
	}
	window := refresh.Window()
	frame := res.FrameSize(24)
	tFetch := uiFetchTime(p, res)
	tC0 := p.OrchTime + w.RenderTime
	if tC0+tFetch > window {
		return trace.Timeline{}, pipeline.ErrUnderrun{Scenario: pipeline.Planar(res, refresh, w.UpdateFPS), Need: tC0 + tFetch, Have: window}
	}

	var tl trace.Timeline
	// Update window: render + fetch + drain.
	tl.Add(trace.Phase{State: soc.C0, Duration: tC0, DRAMWrite: frame, Label: "render"})
	tl.Add(trace.Phase{State: soc.C2, Duration: tFetch, DRAMRead: frame, Label: "dc fetch"})
	tl.AddState(soc.C8, window-tC0-tFetch, "dc drain")
	// Idle windows: until PSR idle-detection engages, the DC keeps
	// re-fetching and streaming the unchanged frame each window; after
	// that the panel self-refreshes and the host parks in C8.
	idle := idleWindowsPerUpdate(w, refresh)
	stream := idle
	if stream > psrEngageWindows {
		stream = psrEngageWindows
	}
	if stream > 0 {
		tl.Add(trace.Phase{
			State: soc.C2, Duration: time.Duration(stream * float64(tFetch)),
			DRAMRead: units.ByteSize(stream * float64(frame)), Label: "dc refetch",
		})
		tl.AddState(soc.C8, time.Duration(stream*float64(window-tFetch)), "dc drain")
	}
	if psr := idle - stream; psr > 0 {
		tl.AddState(soc.C8, time.Duration(psr*float64(window)), "psr")
	}
	return tl, nil
}

// UIBurst produces the same workload with Frame Bursting (§6.5): on an
// update the DC bursts the frame buffer into the DRFB at maximum link
// bandwidth, then the package drops to C9; idle windows are pure C9
// because the panel self-refreshes from the DRFB.
func UIBurst(p pipeline.Platform, w UIWorkload, res units.Resolution, refresh units.RefreshRate) (trace.Timeline, error) {
	if err := w.validate(refresh); err != nil {
		return trace.Timeline{}, err
	}
	window := refresh.Window()
	frame := res.FrameSize(24)
	tXfer := uiFetchTime(p, res)
	if tLink := p.BurstTime(res, 24); tLink > tXfer {
		tXfer = tLink
	}
	tC0 := p.OrchTimeBL + w.RenderTime
	if tC0+tXfer > window {
		return trace.Timeline{}, pipeline.ErrUnderrun{Scenario: pipeline.Planar(res, refresh, w.UpdateFPS), Need: tC0 + tXfer, Have: window}
	}

	var tl trace.Timeline
	tl.Add(trace.Phase{State: soc.C0, Duration: tC0, DRAMWrite: frame, Label: "render"})
	tl.Add(trace.Phase{State: soc.C2, Duration: tXfer, DRAMRead: frame, EDPBurst: true, Label: "burst→drfb"})
	tl.AddState(soc.C9, window-tC0-tXfer, "deep idle")
	idle := idleWindowsPerUpdate(w, refresh)
	tl.AddState(soc.C9, time.Duration(idle*float64(window)), "psr(drfb)")
	return tl, nil
}
