// Package vr implements the VR video processing stage the paper adds to
// the planar pipeline (§2.4): the projective transformation (PT) that maps
// the user's current viewing direction into a planar viewport sampled from
// a 360° equirectangular frame, plus synthetic head-movement trajectories
// standing in for the MMSys'17 head-movement dataset the paper's five VR
// workloads come from (see DESIGN.md §1 for the substitution rationale).
package vr

import (
	"fmt"
	"math"

	"burstlink/internal/codec"
	"burstlink/internal/par"
	"burstlink/internal/units"
)

// HeadPose is the viewer's orientation in radians.
type HeadPose struct {
	Yaw   float64 // rotation about the vertical axis, + looking left
	Pitch float64 // rotation about the horizontal axis, + looking up
	Roll  float64 // rotation about the view axis
}

// Projector maps equirectangular frames to a planar viewport for a given
// head pose — the PT operation the GPU performs per frame (§2.4).
type Projector struct {
	viewport units.Resolution
	fovY     float64 // vertical field of view, radians

	pixels int64 // total pixels projected, for compute accounting
}

// NewProjector builds a projector for the given per-eye viewport and
// vertical field of view in degrees (HMDs are ~90-110°).
func NewProjector(viewport units.Resolution, fovDeg float64) (*Projector, error) {
	if viewport.Pixels() <= 0 {
		return nil, fmt.Errorf("vr: empty viewport %v", viewport)
	}
	if fovDeg <= 0 || fovDeg >= 180 {
		return nil, fmt.Errorf("vr: field of view %.1f° out of range", fovDeg)
	}
	return &Projector{viewport: viewport, fovY: fovDeg * math.Pi / 180}, nil
}

// PixelsProjected returns the cumulative projected pixel count, the unit
// the power model charges GPU compute against.
func (pr *Projector) PixelsProjected() int64 { return pr.pixels }

// Project renders the viewport for the given pose by sampling the
// equirectangular source with bilinear interpolation. The source should be
// 2:1 (full sphere) but any aspect is accepted.
//
// Scanlines are independent — each pixel's ray depends only on its own
// coordinates and the pose, and writes land in disjoint rows of out — so
// they fan out over the worker pool. Per-pixel arithmetic is untouched,
// so the rendered viewport is bit-identical for any worker count.
func (pr *Projector) Project(src *codec.Frame, pose HeadPose) *codec.Frame {
	w, h := pr.viewport.Width, pr.viewport.Height
	out := codec.NewFrame(w, h)
	out.Seq = src.Seq

	// Focal length in pixels from the vertical FOV.
	fy := float64(h) / 2 / math.Tan(pr.fovY/2)
	cy, cx := float64(h)/2, float64(w)/2

	sinYaw, cosYaw := math.Sin(pose.Yaw), math.Cos(pose.Yaw)
	sinPitch, cosPitch := math.Sin(pose.Pitch), math.Cos(pose.Pitch)
	sinRoll, cosRoll := math.Sin(pose.Roll), math.Cos(pose.Roll)

	par.ForEachChunk(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < w; x++ {
				// Ray through the pixel in camera space (z forward, x right,
				// y up).
				vx := (float64(x) - cx + 0.5) / fy
				vy := -(float64(y) - cy + 0.5) / fy
				vz := 1.0

				// Roll about z.
				vx, vy = vx*cosRoll-vy*sinRoll, vx*sinRoll+vy*cosRoll
				// Pitch about x: positive pitch tilts the forward axis up.
				vy, vz = vy*cosPitch+vz*sinPitch, -vy*sinPitch+vz*cosPitch
				// Yaw about y.
				vx, vz = vx*cosYaw+vz*sinYaw, -vx*sinYaw+vz*cosYaw

				// Spherical coordinates → equirect texel.
				lon := math.Atan2(vx, vz)                   // [-pi, pi]
				lat := math.Atan2(vy, math.Hypot(vx, vz))   // [-pi/2, pi/2]
				u := (lon/math.Pi + 1) / 2 * float64(src.W) // [0, W)
				v := (0.5 - lat/math.Pi) * float64(src.H)   // [0, H)
				sampleBilinear(src, out, x, y, u-0.5, v-0.5)
			}
		}
	})
	pr.pixels += int64(w * h)
	return out
}

// sampleBilinear writes the bilinearly-interpolated sample at source
// coordinates (u, v) into out at (x, y), wrapping longitude and clamping
// latitude.
func sampleBilinear(src, out *codec.Frame, x, y int, u, v float64) {
	u0 := int(math.Floor(u))
	v0 := int(math.Floor(v))
	fu := u - float64(u0)
	fv := v - float64(v0)
	for p := 0; p < 3; p++ {
		a := float64(texel(src, p, u0, v0))
		b := float64(texel(src, p, u0+1, v0))
		c := float64(texel(src, p, u0, v0+1))
		d := float64(texel(src, p, u0+1, v0+1))
		top := a + (b-a)*fu
		bot := c + (d-c)*fu
		out.Set(p, x, y, byte(math.Round(top+(bot-top)*fv)))
	}
}

// texel reads a source sample with longitude wrap and latitude clamp.
func texel(src *codec.Frame, p, x, y int) byte {
	x %= src.W
	if x < 0 {
		x += src.W
	}
	if y < 0 {
		y = 0
	} else if y >= src.H {
		y = src.H - 1
	}
	return src.Planes[p][y*src.W+x]
}
