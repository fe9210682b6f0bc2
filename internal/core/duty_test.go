package core

import (
	"testing"

	"burstlink/internal/pipeline"
)

// TestVDDutyCycle: in the functional runs, the decoder's duty cycle under
// BurstLink's interleaved C7 decode is low — the VD works only during its
// decode stretch and is power-gated for the rest of every period.
func TestVDDutyCycle(t *testing.T) {
	p := pipeline.DefaultPlatform()
	cfg := smallCfg(8)
	base, err := pipeline.RunFunctionalMemo(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := RunFunctionalMemo(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.VDActiveFraction <= 0 || base.VDActiveFraction >= 0.5 {
		t.Fatalf("baseline VD duty = %.3f, want small positive", base.VDActiveFraction)
	}
	if bl.VDActiveFraction <= 0 || bl.VDActiveFraction >= 0.5 {
		t.Fatalf("burstlink VD duty = %.3f, want small positive", bl.VDActiveFraction)
	}
}
