package accum_test

import (
	"fmt"
	"testing"

	"parsum/internal/accum"
	"parsum/internal/gen"
)

// BenchmarkLaneCall measures a full-range Window.AddSlice per call at the request sizes
// the service layers send (1024 values per keyed-ingest write, 256 per
// replicated write), a Round every tenth call as a read mix, one 4M-value
// call as the bulk-sum shape, and very short slices, where the per-call
// lane set-up and drain are not amortized. Inputs are Random with δ = 2000.
func BenchmarkLaneCall(b *testing.B) {
	pool := gen.New(gen.Config{Dist: gen.Random, N: 1 << 22, Delta: 2000, Seed: 1}).Slice()
	var sink float64
	for _, n := range []int{1, 16, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := accum.NewFullWindow(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				off := (i * n) % (len(pool) - n)
				d.AddSlice(pool[off : off+n])
			}
			sink += d.Round()
		})
	}
	b.Run("n=1024/round10", func(b *testing.B) {
		d := accum.NewFullWindow(0)
		for i := 0; i < b.N; i++ {
			off := (i * 1024) % (len(pool) - 1024)
			d.AddSlice(pool[off : off+1024])
			if i%10 == 9 {
				sink += d.Round()
			}
		}
	})
	b.Run("n=4M/round", func(b *testing.B) {
		d := accum.NewFullWindow(0)
		for i := 0; i < b.N; i++ {
			d.Reset()
			d.AddSlice(pool)
			sink += d.Round()
		}
	})
	benchSink = sink
}

var benchSink float64
