package display

import (
	"bytes"
	"testing"
	"testing/quick"

	"burstlink/internal/edp"
	"burstlink/internal/units"
)

func fhdPanel(double bool) *Panel {
	return NewPanel(Config{Resolution: units.FHD, BPP: 24, Refresh: 60, DoubleRFB: double})
}

func metaFrame(seq int) Frame { return Frame{Seq: seq} }

func TestConfigDerived(t *testing.T) {
	cfg := Config{Resolution: units.R4K, BPP: 24, Refresh: 60}
	if cfg.FrameSize() != units.R4K.FrameSize(24) {
		t.Fatal("frame size wrong")
	}
}

func TestRFBSingleBankTearsOnScanOverlap(t *testing.T) {
	// The conventional single RFB tears if the host writes during
	// scan-out — the reason conventional links are pixel-paced.
	r := NewRFB(units.MB)
	if err := r.Write(metaFrame(1)); err != nil {
		t.Fatal(err)
	}
	r.BeginScan()
	if err := r.Write(metaFrame(2)); err != nil {
		t.Fatal(err)
	}
	r.EndScan()
	if r.Tears() != 1 {
		t.Fatalf("tears = %d, want 1", r.Tears())
	}
}

func TestRFBWriteBetweenScansIsClean(t *testing.T) {
	r := NewRFB(units.MB)
	r.Write(metaFrame(1))
	r.BeginScan()
	r.EndScan()
	r.Write(metaFrame(2))
	if r.Tears() != 0 {
		t.Fatalf("tears = %d, want 0", r.Tears())
	}
}

func TestDRFBWriteDuringScanIsSafe(t *testing.T) {
	// BurstLink's key enabler: the DRFB takes a full-bandwidth write
	// while the other bank is scanned — zero tears (§4.1).
	d := NewDRFB(units.MB)
	d.Write(metaFrame(1))
	d.Flip()
	d.BeginScan()
	if err := d.Write(metaFrame(2)); err != nil {
		t.Fatal(err)
	}
	d.EndScan()
	if d.Tears() != 0 {
		t.Fatalf("tears = %d, want 0", d.Tears())
	}
	// The new frame becomes visible only after FrameReady/flip.
	if f, _ := d.Visible(); f.Seq != 1 {
		t.Fatalf("visible seq = %d before flip, want 1", f.Seq)
	}
	d.Flip()
	if f, _ := d.Visible(); f.Seq != 2 {
		t.Fatalf("visible seq = %d after flip, want 2", f.Seq)
	}
	if d.flips != 2 {
		t.Fatalf("flips = %d", d.flips)
	}
}

func TestDRFBFlipWithoutPendingIsNoop(t *testing.T) {
	d := NewDRFB(units.MB)
	d.Write(metaFrame(1))
	d.Flip()
	before, _ := d.Visible()
	d.Flip() // nothing pending
	after, _ := d.Visible()
	if before.Seq != after.Seq {
		t.Fatal("flip without pending changed visible frame")
	}
	if d.pending {
		t.Fatal("pending should be clear")
	}
}

func TestStoreCapacity(t *testing.T) {
	for _, store := range []FrameStore{NewRFB(units.KB), NewDRFB(units.KB)} {
		f := Frame{Seq: 1, Data: make([]byte, 2*units.KB)}
		if err := store.Write(f); err == nil {
			t.Errorf("%T: oversized write should fail", store)
		}
		if store.Capacity() != units.KB {
			t.Errorf("%T: capacity wrong", store)
		}
	}
	if NewRFB(units.KB).Banks() != 1 || NewDRFB(units.KB).Banks() != 2 {
		t.Fatal("bank counts wrong")
	}
}

func TestDRFBAlternatesBanksUnderFlipDiscipline(t *testing.T) {
	// Property: with the write→flip→scan discipline, any sequence of N
	// frames displays in order with zero tears.
	f := func(n uint8) bool {
		d := NewDRFB(units.MB)
		for i := 0; i <= int(n%50); i++ {
			if d.Write(metaFrame(i)) != nil {
				return false
			}
			d.Flip()
			d.BeginScan()
			vis, ok := d.Visible()
			d.EndScan()
			if !ok || vis.Seq != i {
				return false
			}
		}
		return d.Tears() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanelRefreshRequiresFrame(t *testing.T) {
	p := fhdPanel(false)
	if _, err := p.Refresh(); err == nil {
		t.Fatal("refresh with empty store should fail")
	}
}

func TestPanelReceiveAndRefresh(t *testing.T) {
	p := fhdPanel(false)
	if err := p.ReceiveFrame(metaFrame(7)); err != nil {
		t.Fatal(err)
	}
	f, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 7 {
		t.Fatalf("displayed seq = %d", f.Seq)
	}
	st := p.Stats()
	if st.Refreshes != 1 || st.UniqueFrames != 1 || st.SelfRefresh != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanelRejectsWrongSizeFrame(t *testing.T) {
	p := fhdPanel(false)
	bad := Frame{Seq: 1, Data: make([]byte, 100)}
	if err := p.ReceiveFrame(bad); err == nil {
		t.Fatal("wrong-size frame should be rejected")
	}
}

func TestPSRProtocol(t *testing.T) {
	p := fhdPanel(false)
	// PSR_ENTER before any frame must fail: nothing to self-refresh from.
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter}); err == nil {
		t.Fatal("PSR_ENTER with empty RFB should fail")
	}
	p.ReceiveFrame(metaFrame(1))
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter}); err != nil {
		t.Fatal(err)
	}
	if p.psr != PSRActive {
		t.Fatalf("psr = %v", p.psr)
	}
	// Self-refresh passes count as such.
	p.Refresh()
	p.Refresh()
	if st := p.Stats(); st.SelfRefresh != 2 {
		t.Fatalf("self refresh = %d", st.SelfRefresh)
	}
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.PSRExit}); err != nil {
		t.Fatal(err)
	}
	if p.psr != PSRInactive {
		t.Fatalf("psr = %v after exit", p.psr)
	}
}

func TestPSR2UpdateRequiresActivePSR(t *testing.T) {
	p := fhdPanel(false)
	p.ReceiveFrame(metaFrame(1))
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update}); err == nil {
		t.Fatal("PSR2_UPDATE while inactive should fail")
	}
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter})
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update}); err != nil {
		t.Fatal(err)
	}
	if p.psr != PSRActiveSU {
		t.Fatalf("psr = %v", p.psr)
	}
}

func TestSelectiveUpdateMetadata(t *testing.T) {
	p := fhdPanel(false)
	p.ReceiveFrame(metaFrame(1))
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter})
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update})

	region := edp.Rect{X: 100, Y: 100, W: 640, H: 360}
	if err := p.SelectiveUpdate(region, nil, 2); err != nil {
		t.Fatal(err)
	}
	f, _ := p.Refresh()
	if f.Seq != 2 {
		t.Fatalf("seq after SU = %d, want 2", f.Seq)
	}
	wantBytes := units.ByteSize(640 * 360 * 3)
	if st := p.Stats(); st.SUBytes != wantBytes {
		t.Fatalf("SU bytes = %v, want %v", st.SUBytes, wantBytes)
	}
}

func TestSelectiveUpdatePixels(t *testing.T) {
	// With real pixel data, the update must land at the right offsets.
	cfg := Config{Resolution: units.Resolution{Width: 8, Height: 4}, BPP: 24, Refresh: 60}
	p := NewPanel(cfg)
	base := make([]byte, cfg.FrameSize())
	p.ReceiveFrame(Frame{Seq: 1, Data: base})
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter})
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update})

	region := edp.Rect{X: 2, Y: 1, W: 3, H: 2}
	upd := bytes.Repeat([]byte{0xAB}, region.Pixels()*3)
	if err := p.SelectiveUpdate(region, upd, 2); err != nil {
		t.Fatal(err)
	}
	f, _ := p.Refresh()
	// Check a pixel inside the region and one outside.
	inside := (1*8 + 2) * 3
	if f.Data[inside] != 0xAB {
		t.Fatalf("pixel inside region not updated: %x", f.Data[inside])
	}
	outside := (0*8 + 0) * 3
	if f.Data[outside] != 0x00 {
		t.Fatalf("pixel outside region modified: %x", f.Data[outside])
	}
}

func TestSelectiveUpdateValidation(t *testing.T) {
	p := fhdPanel(false)
	p.ReceiveFrame(metaFrame(1))
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter})
	p.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update})

	if err := p.SelectiveUpdate(edp.Rect{}, nil, 2); err == nil {
		t.Fatal("empty region should fail")
	}
	if err := p.SelectiveUpdate(edp.Rect{X: 1900, Y: 0, W: 100, H: 10}, nil, 2); err == nil {
		t.Fatal("out-of-bounds region should fail")
	}
	if err := p.SelectiveUpdate(edp.Rect{X: 0, Y: 0, W: 2, H: 2}, []byte{1}, 2); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestFrameReadyFlipsDRFB(t *testing.T) {
	p := fhdPanel(true)
	p.ReceiveFrame(metaFrame(1))
	if err := p.HandleSideband(edp.SidebandMsg{Kind: edp.FrameReady}); err != nil {
		t.Fatal(err)
	}
	f, err := p.Refresh()
	if err != nil || f.Seq != 1 {
		t.Fatalf("frame = %+v err = %v", f, err)
	}
}

func TestBurstIntoDRFBWhileScanning(t *testing.T) {
	// End-to-end DRFB discipline: frame N scans while frame N+1 bursts
	// in; unique frames display in order with zero tears and no
	// regressions.
	p := fhdPanel(true)
	p.ReceiveFrame(metaFrame(0))
	p.HandleSideband(edp.SidebandMsg{Kind: edp.FrameReady})
	for i := 1; i <= 30; i++ {
		p.Store().BeginScan()
		p.ReceiveFrame(metaFrame(i)) // burst lands mid-scan
		p.Store().EndScan()
		p.Refresh()
		p.HandleSideband(edp.SidebandMsg{Kind: edp.FrameReady})
	}
	st := p.Stats()
	if st.Tears != 0 {
		t.Fatalf("tears = %d, want 0", st.Tears)
	}
	if st.SeqRegress != 0 {
		t.Fatalf("sequence regressions = %d", st.SeqRegress)
	}
	// Frames 0..29 were refreshed; frame 30 is flipped but not yet scanned.
	if st.UniqueFrames != 30 {
		t.Fatalf("unique frames = %d, want 30", st.UniqueFrames)
	}
	if f, _ := p.Refresh(); f.Seq != 30 {
		t.Fatalf("next refresh shows seq %d, want 30", f.Seq)
	}
}

func TestFrameChecksum(t *testing.T) {
	a := Frame{Seq: 1, Data: []byte{1, 2, 3}}
	b := Frame{Seq: 1, Data: []byte{1, 2, 4}}
	if a.Checksum() == b.Checksum() {
		t.Fatal("different data should differ in checksum")
	}
	if (Frame{}).Checksum() != 0 {
		t.Fatal("metadata-only frame checksum should be 0")
	}
}

func TestPSRStateString(t *testing.T) {
	if PSRInactive.String() != "inactive" || PSRActiveSU.String() != "active-su" {
		t.Fatal("names wrong")
	}
	if PSRState(9).String() != "PSRState(9)" {
		t.Fatal("out-of-range name wrong")
	}
}
