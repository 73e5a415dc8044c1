package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"qvr/internal/pipeline"
)

// runEach runs every config once on min(GOMAXPROCS, len(cfgs))
// workers and returns one slot per config, in config order. Workers
// claim the next config index from a shared counter, which balances
// the very different per-design costs (a local-only run is far
// cheaper than a Q-VR one); each worker borrows one session from the
// shared warm pool, resets it to the claimed config and hands it to
// run, writes only the slots it claimed, and the caller reads them
// after the pool drains. A reset session runs bit-identically to a new
// one, so the slots — and every row assembled from them — are
// identical at any worker count.
func runEach[T any](cfgs []pipeline.Config, run func(*pipeline.Session, *T)) []T {
	out := make([]T, len(cfgs))
	workers := min(runtime.GOMAXPROCS(0), len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := pipeline.GetSession()
			defer pipeline.PutSession(sess)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				sess.Reset(cfgs[i])
				run(sess, &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// stream runs each config with its frames folded into a FrameStats
// slot instead of materialized: the means are bit-identical to the
// Result accessors, without keeping a FrameRecord per frame.
func stream(cfgs []pipeline.Config) []pipeline.FrameStats {
	return runEach(cfgs, func(sess *pipeline.Session, st *pipeline.FrameStats) {
		sess.RunSink(st)
	})
}

// materialize runs each config with Result.Frames kept, for the
// experiments that need per-frame records or the stage breakdown.
func materialize(cfgs []pipeline.Config) []pipeline.Result {
	return runEach(cfgs, func(sess *pipeline.Session, r *pipeline.Result) {
		*r = sess.Run()
	})
}
