package adaptive

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkNextIteration times the engine's loop over a shrinking pool:
// each op runs every solver iteration until the pool is empty, so the
// small-pool HTA-GRE solves late in a session weigh as much as the large
// ones. The cold-start iteration and engine set-up are not timed.
func BenchmarkNextIteration(b *testing.B) {
	for _, pool := range []int{100, 400} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := rand.New(rand.NewSource(1))
				e, err := NewEngine(Config{Xmax: 5, Rand: r})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AddTasks(genTasks(r, pool)...); err != nil {
					b.Fatal(err)
				}
				for w := 0; w < 10; w++ {
					if _, err := e.AddWorker(genWorker(fmt.Sprintf("w%d", w), w, w+1, w+2)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := e.NextIteration(); err != nil { // cold start
					b.Fatal(err)
				}
				b.StartTimer()
				for e.PoolSize() > 0 {
					if _, err := e.NextIteration(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
