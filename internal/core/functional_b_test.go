package core

import (
	"testing"

	"burstlink/internal/pipeline"
)

// TestFunctionalBurstLinkWithBFrames runs the BurstLink pipeline over a
// B-frame stream: packets arrive in decode order, the pipeline restores
// display order, and the panel still sees every frame bit-exact, in
// sequence, tear-free.
func TestFunctionalBurstLinkWithBFrames(t *testing.T) {
	p := pipeline.DefaultPlatform()
	for _, bPeriod := range []int{1, 2} {
		cfg := smallCfg(13)
		cfg.BPeriod = bPeriod
		res, err := RunFunctionalMemo(p, nil, cfg)
		if err != nil {
			t.Fatalf("B=%d: %v", bPeriod, err)
		}
		if res.FramesVerified != 13 || res.ChecksumErrors != 0 {
			t.Fatalf("B=%d: verified %d/13, errors %d", bPeriod, res.FramesVerified, res.ChecksumErrors)
		}
		if res.Panel.SeqRegress != 0 {
			t.Fatalf("B=%d: display order regressed %d times", bPeriod, res.Panel.SeqRegress)
		}
		if res.Panel.Tears != 0 {
			t.Fatalf("B=%d: tears = %d", bPeriod, res.Panel.Tears)
		}
		if res.DRAMWrite != 0 {
			t.Fatalf("B=%d: bypass wrote %v to DRAM", bPeriod, res.DRAMWrite)
		}
	}
}

// TestPipelineFunctionalRejectsBFrames documents that the conventional
// functional simulator exercises IPPP only.
func TestPipelineFunctionalRejectsBFrames(t *testing.T) {
	cfg := smallCfg(4)
	cfg.BPeriod = 2
	if _, err := pipeline.RunFunctionalMemo(pipeline.DefaultPlatform(), nil, cfg); err == nil {
		t.Fatal("expected BPeriod rejection")
	}
}
