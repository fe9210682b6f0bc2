package session_test

import (
	"fmt"
	"log"

	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/session"
	"burstlink/internal/units"
)

// Play a ten-second FHD 30FPS streaming session under BurstLink and read
// off the user-facing numbers.
func ExampleEngine_Run() {
	eng := session.Engine{P: pipeline.DefaultPlatform(), M: power.Default()}
	r, err := eng.Run(session.Config{
		Scenario: pipeline.Planar(units.FHD, 60, 30),
		Scheme:   session.BurstLink,
		Seconds:  10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d frames, %d stalls, %v, DRAM writes %v/s\n",
		r.Frames, r.Stalls, r.AvgPower, r.DRAMWrite)
	// Output:
	// 300 frames, 0 stalls, 1260 mW, DRAM writes 0 B/s
}
