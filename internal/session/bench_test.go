package session

import (
	"testing"

	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
)

func BenchmarkSessionCompare(b *testing.B) {
	p := pipeline.DefaultPlatform()
	m := power.Default()
	cfg := Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Seconds: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Engine{P: p, M: m}).Compare(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
