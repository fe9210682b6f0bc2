package core_test

import (
	"fmt"
	"log"

	"burstlink/internal/core"
	"burstlink/internal/edp"
	"burstlink/internal/interconnect"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
)

// The simplest possible use of the library: price one frame period of 4K
// 60FPS streaming under the conventional pipeline and under BurstLink.
func Example() {
	platform := pipeline.DefaultPlatform()
	model := power.Default()
	scenario := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(platform, scenario)

	base, err := pipeline.Conventional(platform, scenario)
	if err != nil {
		log.Fatal(err)
	}
	bl, err := core.BurstLink(platform, scenario)
	if err != nil {
		log.Fatal(err)
	}
	pb := model.Evaluate(base, load).Average
	pl := model.Evaluate(bl, load).Average
	fmt.Printf("conventional %v, burstlink %v (%.0f%% saved)\n",
		pb, pl, 100*(1-float64(pl)/float64(pb)))
	// Output:
	// conventional 4006 mW, burstlink 1933 mW (52% saved)
}

// Capability negotiation picks the best supported datapath: a stock PSR
// panel without a DRFB degrades BurstLink to bypass-only.
func ExampleSchedule() {
	platform := pipeline.DefaultPlatform()
	scenario := pipeline.Planar(units.FHD, 60, 30)

	_, feats, err := core.Schedule(platform, scenario, edp.BurstLinkPanelCaps())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("burstlink panel:", feats)

	_, feats, err = core.Schedule(platform, scenario, edp.ConventionalPanelCaps())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stock psr panel:", feats)
	// Output:
	// burstlink panel: bypass=true burst=true windowed=true
	// stock psr panel: bypass=true burst=false windowed=false
}

// The destination selector routes decoded frames to the display
// controller only while the §4.4 conditions hold.
func ExampleDestinationSelector() {
	sel := core.NewDestinationSelector(newCSR("vd"), newCSR("dc"))
	sel.SetVideoApps(1)
	sel.SetPlanes(1, true)
	fmt.Println("full-screen video:", sel.Destination())
	sel.SetPlanes(2, false) // the GUI appeared
	fmt.Println("gui overlaid:    ", sel.Destination())
	// Output:
	// full-screen video: dc
	// gui overlaid:     dram
}

// newCSR is a tiny helper for the examples.
func newCSR(owner string) *interconnect.CSRFile { return interconnect.NewCSRFile(owner) }
