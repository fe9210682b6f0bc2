package core

import (
	"testing"

	"burstlink/internal/interconnect"
)

// TestFallbackFollowsPlaneLifecycle drives the §4.1 fallback scenario end
// to end: full-screen video starts in bypass; the application's GUI
// appears and the display driver reprograms the DC plane registers, so
// the pipeline falls back to the conventional DRAM path; the GUI
// disappears and bypass resumes.
func TestFallbackFollowsPlaneLifecycle(t *testing.T) {
	sel := NewDestinationSelector(interconnect.NewCSRFile("vd"), interconnect.NewCSRFile("dc"))
	sel.SetVideoApps(1)

	// Full-screen video only.
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		t.Fatal("full-screen video should take the bypass path")
	}

	// The GUI pops up over the video: two planes to compose.
	sel.SetPlanes(2, false)
	if sel.Destination() != DestDRAM {
		t.Fatal("multi-plane composition must fall back to DRAM")
	}

	// A single plane that is not the video plane (the GUI alone) also
	// needs the DRAM path.
	sel.SetPlanes(1, false)
	if sel.Destination() != DestDRAM {
		t.Fatal("a lone non-video plane must use the DRAM path")
	}

	// GUI dismissed: bypass resumes.
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		t.Fatal("bypass should resume once only the video plane remains")
	}
}

// TestFallbackOnSecondVideoApp covers the single_video condition.
func TestFallbackOnSecondVideoApp(t *testing.T) {
	sel := NewDestinationSelector(interconnect.NewCSRFile("vd"), interconnect.NewCSRFile("dc"))
	sel.SetVideoApps(1)
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		t.Fatal("precondition: bypass active")
	}
	// A second player starts (e.g. picture-in-picture preview).
	sel.SetVideoApps(2)
	if sel.Destination() != DestDRAM {
		t.Fatal("two video apps must disable bypass even with one plane")
	}
	sel.SetVideoApps(1)
	if sel.Destination() != DestDC {
		t.Fatal("bypass should resume with a single app")
	}
}
