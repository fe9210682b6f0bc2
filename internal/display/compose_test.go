package display

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"burstlink/internal/edp"
	"burstlink/internal/units"
)

func smallRes() units.Resolution { return units.Resolution{Width: 32, Height: 16} }

func TestCompositorValidation(t *testing.T) {
	c := NewCompositor(smallRes())
	if _, err := c.Compose(0); err == nil {
		t.Fatal("compose with no planes should fail")
	}
	bad := Plane{Name: "x", Rect: edp.Rect{X: 30, Y: 0, W: 10, H: 4}}
	if err := c.SetPlane(bad); err == nil {
		t.Fatal("out-of-bounds plane should fail")
	}
	short := Plane{Name: "x", Rect: edp.Rect{W: 4, H: 4}, Data: []byte{1, 2, 3}}
	if err := c.SetPlane(short); err == nil {
		t.Fatal("short data should fail")
	}
}

func TestCompositionZOrder(t *testing.T) {
	c := NewCompositor(smallRes())
	// Background fills everything; video overlays the middle; cursor on
	// top of video.
	full := edp.Rect{W: 32, H: 16}
	if err := c.SetPlane(Plane{Name: "background", Z: 0, Rect: full, Fill: [3]byte{10, 10, 10}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPlane(Plane{Name: "video", Z: 1, Rect: edp.Rect{X: 8, Y: 4, W: 16, H: 8}, Fill: [3]byte{100, 100, 100}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPlane(Plane{Name: "cursor", Z: 2, Rect: edp.Rect{X: 10, Y: 6, W: 2, H: 2}, Fill: [3]byte{255, 255, 255}}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Compose(7)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 7 {
		t.Fatalf("seq = %d", f.Seq)
	}
	px := func(x, y int) byte { return f.Data[(y*32+x)*3] }
	if px(0, 0) != 10 {
		t.Fatalf("background pixel = %d", px(0, 0))
	}
	if px(9, 5) != 100 {
		t.Fatalf("video pixel = %d", px(9, 5))
	}
	if px(10, 6) != 255 {
		t.Fatalf("cursor pixel = %d", px(10, 6))
	}
}

func TestCompositionZOrderIndependentOfInsertion(t *testing.T) {
	mk := func(order []string) Frame {
		c := NewCompositor(smallRes())
		planes := map[string]Plane{
			"background": {Name: "background", Z: 0, Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{1, 1, 1}},
			"video":      {Name: "video", Z: 1, Rect: edp.Rect{X: 4, Y: 4, W: 8, H: 8}, Fill: [3]byte{2, 2, 2}},
			"gui":        {Name: "gui", Z: 2, Rect: edp.Rect{X: 6, Y: 6, W: 4, H: 4}, Fill: [3]byte{3, 3, 3}},
		}
		for _, n := range order {
			c.SetPlane(planes[n])
		}
		f, _ := c.Compose(0)
		return f
	}
	a := mk([]string{"background", "video", "gui"})
	b := mk([]string{"gui", "background", "video"})
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("composition depends on insertion order, not Z")
	}
}

func TestTransparentCursor(t *testing.T) {
	c := NewCompositor(smallRes())
	c.SetPlane(Plane{Name: "background", Z: 0, Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{10, 10, 10}})
	// A 2x1 cursor whose second pixel is the transparent key color.
	cur := []byte{255, 255, 255, 9, 9, 9}
	c.SetPlane(Plane{Name: "cursor", Z: 1, Rect: edp.Rect{X: 0, Y: 0, W: 2, H: 1},
		Data: cur, Fill: [3]byte{9, 9, 9}, Transparent: true})
	f, _ := c.Compose(0)
	if f.Data[0] != 255 {
		t.Fatal("opaque cursor pixel missing")
	}
	if f.Data[3] != 10 {
		t.Fatal("transparent pixel should show background")
	}
}

func TestVideoPlaneOnlySignal(t *testing.T) {
	c := NewCompositor(smallRes())
	c.SetPlane(Plane{Name: "video", Z: 0, Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{1, 1, 1}})
	if !c.VideoPlaneOnly() {
		t.Fatal("single video plane should assert video_plane_only")
	}
	c.SetPlane(Plane{Name: "gui", Z: 1, Rect: edp.Rect{W: 8, H: 8}, Fill: [3]byte{2, 2, 2}})
	if c.VideoPlaneOnly() {
		t.Fatal("GUI plane should deassert video_plane_only")
	}
	if c.PlaneCount() != 2 {
		t.Fatalf("plane count = %d", c.PlaneCount())
	}
	c.RemovePlane("gui")
	if !c.VideoPlaneOnly() {
		t.Fatal("removing the GUI should restore video_plane_only")
	}
	c.RemovePlane("nope") // no-op
	if c.PlaneCount() != 1 {
		t.Fatal("unexpected plane count after removing unknown name")
	}
}

func TestSetPlaneReplacesByName(t *testing.T) {
	c := NewCompositor(smallRes())
	c.SetPlane(Plane{Name: "video", Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{1, 1, 1}})
	c.SetPlane(Plane{Name: "video", Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{5, 5, 5}})
	if c.PlaneCount() != 1 {
		t.Fatalf("plane count = %d after replace", c.PlaneCount())
	}
	f, _ := c.Compose(0)
	if f.Data[0] != 5 {
		t.Fatal("replacement did not take effect")
	}
}

func TestComposeStats(t *testing.T) {
	c := NewCompositor(smallRes())
	c.SetPlane(Plane{Name: "video", Rect: edp.Rect{W: 32, H: 16}, Fill: [3]byte{1, 1, 1}})
	c.Compose(0)
	c.Compose(1)
	st := c.Stats()
	if st.Frames != 2 || st.Pixels != 2*32*16 {
		t.Fatalf("stats = %+v", st)
	}
}

// The plane compositor below is test-only: no binary, figure or
// benchmark composes planes, and these tests are its only callers.

// Plane is one display plane (§3: background, video, application-graphic
// GUI, cursor). "The final image is a composition (overlay) of different
// planes in a pre-defined order of superposition."
type Plane struct {
	Name string
	// Z is the superposition order: higher Z draws on top.
	Z int
	// Rect places the plane on the panel.
	Rect edp.Rect
	// Data is the plane's pixel content (3 bytes/pixel, row-major,
	// Rect.W×Rect.H). Nil means a solid fill of Fill.
	Data []byte
	// Fill is the solid color used when Data is nil.
	Fill [3]byte
	// Transparent marks Fill-colored pixels in Data as see-through
	// (cursor/GUI planes).
	Transparent bool
}

// PlaneKind classifies planes for the destination selector's
// video_plane_only signal.
type PlaneKind int

// Plane kinds (§3's four-plane example).
const (
	PlaneBackground PlaneKind = iota
	PlaneVideo
	PlaneGUI
	PlaneCursor
)

// Compositor is the display controller's plane-composition engine: it
// merges the enabled planes into the single frame the DC sends to the
// panel. When more than the video plane is enabled, BurstLink must fall
// back to the conventional DRAM path precisely because this merge needs
// all the planes' frame buffers (§4.1).
type Compositor struct {
	res    units.Resolution
	planes []Plane

	composed int
	pixels   int64
}

// NewCompositor builds a compositor for the panel resolution.
func NewCompositor(res units.Resolution) *Compositor {
	return &Compositor{res: res}
}

// SetPlane adds or replaces a plane by name.
func (c *Compositor) SetPlane(p Plane) error {
	r := p.Rect
	if r.Empty() || r.X < 0 || r.Y < 0 || r.X+r.W > c.res.Width || r.Y+r.H > c.res.Height {
		return fmt.Errorf("display: plane %q rect %+v outside panel %v", p.Name, r, c.res)
	}
	if p.Data != nil && len(p.Data) != r.Pixels()*3 {
		return fmt.Errorf("display: plane %q data %d bytes, want %d", p.Name, len(p.Data), r.Pixels()*3)
	}
	for i := range c.planes {
		if c.planes[i].Name == p.Name {
			c.planes[i] = p
			return nil
		}
	}
	c.planes = append(c.planes, p)
	return nil
}

// RemovePlane drops a plane by name; unknown names are a no-op.
func (c *Compositor) RemovePlane(name string) {
	for i := range c.planes {
		if c.planes[i].Name == name {
			c.planes = append(c.planes[:i], c.planes[i+1:]...)
			return
		}
	}
}

// PlaneCount returns how many planes are enabled — the quantity the DC
// exposes in its CSRs for the destination selector.
func (c *Compositor) PlaneCount() int { return len(c.planes) }

// VideoPlaneOnly reports whether exactly one plane named "video" is
// enabled (the video_plane_only condition of §4.4).
func (c *Compositor) VideoPlaneOnly() bool {
	return len(c.planes) == 1 && c.planes[0].Name == "video"
}

// Compose merges the planes in Z order into a full frame. It returns the
// composed frame; the pixel count processed feeds DC-work accounting.
func (c *Compositor) Compose(seq int) (Frame, error) {
	if len(c.planes) == 0 {
		return Frame{}, fmt.Errorf("display: compose with no planes")
	}
	out := make([]byte, c.res.Pixels()*3)
	ordered := append([]Plane(nil), c.planes...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Z < ordered[j].Z })
	for _, p := range ordered {
		c.blit(out, p)
	}
	c.composed++
	c.pixels += int64(c.res.Pixels())
	return Frame{Seq: seq, Data: out}, nil
}

func (c *Compositor) blit(dst []byte, p Plane) {
	for y := 0; y < p.Rect.H; y++ {
		rowOff := ((p.Rect.Y+y)*c.res.Width + p.Rect.X) * 3
		for x := 0; x < p.Rect.W; x++ {
			var px [3]byte
			if p.Data == nil {
				px = p.Fill
			} else {
				i := (y*p.Rect.W + x) * 3
				px = [3]byte{p.Data[i], p.Data[i+1], p.Data[i+2]}
				if p.Transparent && px == p.Fill {
					continue
				}
			}
			copy(dst[rowOff+3*x:rowOff+3*x+3], px[:])
		}
	}
}

// Stats reports compositor work.
type ComposeStats struct {
	Frames int
	Pixels int64
}

// Stats returns the counters.
func (c *Compositor) Stats() ComposeStats {
	return ComposeStats{Frames: c.composed, Pixels: c.pixels}
}
