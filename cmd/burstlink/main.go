// Command burstlink runs the paper's experiments and inspects the
// simulated display pipeline.
//
// Usage:
//
//	burstlink list                     # list experiment IDs
//	burstlink run <id>|all             # run one or all experiments
//	burstlink timeline [-scheme S] [-res R] [-fps N] [-hz N]
//	                                   # print a C-state timeline
//	burstlink functional [-frames N]   # run the functional simulators
//	burstlink calibrate                # print calibration anchors
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"burstlink/internal/core"
	"burstlink/internal/exp"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/session"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		for _, e := range exp.FullRegistry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	case "run":
		err = runCmd(os.Args[2:])
	case "timeline":
		err = timelineCmd(os.Args[2:])
	case "functional":
		err = functionalCmd(os.Args[2:])
	case "session":
		err = sessionCmd(os.Args[2:])
	case "calibrate":
		err = calibrateCmd()
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "burstlink:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: burstlink <command>

commands:
  list        list experiment IDs (paper tables and figures)
  run <id>    run one experiment, or "all" for every one (-json for JSON)
  timeline    print a package C-state timeline for a scheme/scenario
  functional  run the end-to-end functional simulators (real codec)
  session     play a full streaming session under every scheme
  calibrate   print the Table 2 calibration anchors`)
}

func runCmd(args []string) error {
	asJSON := false
	if len(args) > 0 && args[0] == "-json" {
		asJSON = true
		args = args[1:]
	}
	if len(args) < 1 {
		return fmt.Errorf("run: need an experiment ID or 'all'")
	}
	emit := func(tab exp.Table) error {
		if asJSON {
			b, err := tab.JSON()
			if err != nil {
				return err
			}
			fmt.Print(string(b))
			return nil
		}
		fmt.Println(tab.String())
		return nil
	}
	if args[0] == "all" {
		// The drivers are independent, so the sweep runs them on the
		// worker pool; tables still print in registry order. Ctrl-C
		// cancels the cells that have not started yet.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		tabs, err := exp.RunAll(ctx, exp.Registry())
		if err != nil {
			return err
		}
		for _, tab := range tabs {
			if err := emit(tab); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := exp.ByID(args[0])
	if err != nil {
		return err
	}
	tab, err := e.Run()
	if err != nil {
		return err
	}
	return emit(tab)
}

func resolveRes(name string) (units.Resolution, error) {
	switch strings.ToUpper(name) {
	case "FHD":
		return units.FHD, nil
	case "QHD":
		return units.QHD, nil
	case "4K":
		return units.R4K, nil
	case "5K":
		return units.R5K, nil
	}
	return units.Resolution{}, fmt.Errorf("unknown resolution %q (FHD, QHD, 4K, 5K)", name)
}

func timelineCmd(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	scheme := fs.String("scheme", "burstlink", "baseline | burst | bypass | burstlink")
	resName := fs.String("res", "FHD", "FHD | QHD | 4K | 5K")
	fps := fs.Int("fps", 30, "video frame rate")
	hz := fs.Int("hz", 60, "panel refresh rate")
	chrome := fs.String("chrome", "", "also write a Chrome trace-viewer JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := resolveRes(*resName)
	if err != nil {
		return err
	}
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(res, units.RefreshRate(*hz), units.FPS(*fps))

	schedulers := map[string]func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error){
		"baseline":  pipeline.Conventional,
		"burst":     core.BurstOnly,
		"bypass":    core.BypassOnly,
		"burstlink": core.BurstLink,
	}
	sched, ok := schedulers[strings.ToLower(*scheme)]
	if !ok {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	tl, err := sched(p, s)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %dFPS on %dHz, one frame period\n", *scheme, res.Name(), *fps, *hz)
	fmt.Println("timeline:", tl.ASCII(64))
	fmt.Println("residency:", tl.String())
	fmt.Println("legend: 0=C0 2=C2 7=C7 '=C7' 8=C8 9=C9")
	if *chrome != "" {
		b, err := tl.ChromeTrace(fmt.Sprintf("%s-%s-%dfps", *scheme, res.Name(), *fps))
		if err != nil {
			return err
		}
		if err := os.WriteFile(*chrome, b, 0o644); err != nil {
			return err
		}
		fmt.Println("chrome trace written to", *chrome, "(open in ui.perfetto.dev)")
	}
	return nil
}

func functionalCmd(args []string) error {
	fs := flag.NewFlagSet("functional", flag.ContinueOnError)
	frames := fs.Int("frames", 16, "number of frames")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := pipeline.DefaultPlatform()
	cfg := pipeline.FunctionalConfig{Width: 128, Height: 96, Frames: *frames, FPS: 30, Refresh: 60}

	// Both runs exercise the same synthetic content; the segment cache
	// shares the encode between them.
	seg := memo.NewCache(8)
	base, err := pipeline.RunFunctionalMemo(p, seg, cfg)
	if err != nil {
		return err
	}
	bl, err := core.RunFunctionalMemo(p, seg, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("functional run: %d frames of %dx%d video, real codec\n\n", *frames, cfg.Width, cfg.Height)
	fmt.Printf("%-22s %14s %14s\n", "", "conventional", "burstlink")
	fmt.Printf("%-22s %14d %14d\n", "frames verified", base.FramesVerified, bl.FramesVerified)
	fmt.Printf("%-22s %14d %14d\n", "checksum errors", base.ChecksumErrors, bl.ChecksumErrors)
	fmt.Printf("%-22s %14d %14d\n", "panel tears", base.Panel.Tears, bl.Panel.Tears)
	fmt.Printf("%-22s %14v %14v\n", "DRAM reads", base.DRAMRead, bl.DRAMRead)
	fmt.Printf("%-22s %14v %14v\n", "DRAM writes", base.DRAMWrite, bl.DRAMWrite)
	fmt.Printf("%-22s %14v %14v\n", "P2P (bypass) bytes", base.P2PBytes, bl.P2PBytes)
	fmt.Printf("%-22s %14s %14s\n", "deepest C-state",
		base.Timeline.DeepestState().String(), bl.Timeline.DeepestState().String())
	return nil
}

func sessionCmd(args []string) error {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	resName := fs.String("res", "4K", "FHD | QHD | 4K | 5K")
	fps := fs.Int("fps", 60, "video frame rate")
	secs := fs.Int("seconds", 30, "seconds of playback")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := resolveRes(*resName)
	if err != nil {
		return err
	}
	p := pipeline.DefaultPlatform()
	m := power.Default()
	cfg := session.Config{Scenario: pipeline.Planar(res, 60, units.FPS(*fps)), Seconds: *secs}
	results, err := session.Engine{P: p, M: m}.Compare(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%ds streaming session, %s %dFPS on 60Hz\n\n", *secs, res.Name(), *fps)
	fmt.Printf("%-14s %10s %12s %10s %12s %12s %7s\n",
		"scheme", "avg power", "energy", "battery", "dram rd/s", "dram wr/s", "stalls")
	for _, r := range results {
		fmt.Printf("%-14s %10v %12v %10s %12v %12v %7d\n",
			r.Scheme, r.AvgPower, r.Energy, workload.LifeString(r.BatteryLife),
			r.DRAMRead, r.DRAMWrite, r.Stalls)
	}
	return nil
}

func calibrateCmd() error {
	p := pipeline.DefaultPlatform()
	m := power.Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	load := power.LoadOf(p, s)
	base, err := pipeline.Conventional(p, s)
	if err != nil {
		return err
	}
	bl, err := core.BurstLink(p, s)
	if err != nil {
		return err
	}
	fmt.Println("calibration anchors (paper Table 2, FHD 30FPS on 60Hz):")
	fmt.Printf("  baseline  AvgP model %v vs measured 2162 mW; residency %s\n",
		m.Evaluate(base, load).Average, base.String())
	fmt.Printf("  burstlink AvgP model %v vs measured 1274 mW; residency %s\n",
		m.Evaluate(bl, load).Average, bl.String())
	return nil
}
