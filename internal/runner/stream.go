package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// streamWindowPerWorker sizes the reorder window of a streaming sweep: up to
// this many completed-but-not-yet-emitted results may exist per worker. The
// window is what bounds a streaming sweep's memory — O(workers), never
// O(sweep length).
const streamWindowPerWorker = 4

// streamItem is one completed run in flight between a worker and the
// in-order consumer.
type streamItem[T any] struct {
	i   int
	res T
	err error
}

// SweepStream executes run(i) for every i in [0, n) across a worker pool and
// calls emit(i, result) in strict index order — the constant-memory streaming
// form of Sweep. Results are handed to emit as soon as the in-order prefix
// completes and are never accumulated: at most streamWindowPerWorker×workers
// results are alive at any moment, so a million-run sweep costs the same
// memory as a hundred-run one.
//
// Determinism contract (the streaming extension of Sweep's): because emit
// observes results in input order, any state emit folds them into — the
// checkpoint engine's Aggregate, a hash, a running reducer — goes through
// exactly the serial sequence of states, bitwise independent of the worker
// count, GOMAXPROCS, and goroutine scheduling.
//
// Errors: the error of the lowest-index failing run wins (again independent
// of scheduling), emit is never called for indices at or beyond the failing
// one, and an error returned by emit stops the sweep with that error. In
// every case all workers have exited before SweepStream returns.
//
// The engine: a worker pool pulling indices from an atomic counter, a ticket
// semaphore bounding how many results may be in flight, and a single
// consumer emitting in index order through a reorder buffer.
func SweepStream[T any](n, workers int, run func(int) (T, error), emit func(int, T) error) error {
	return sweepWorkers(n, workers, func() func(int) (T, error) { return run }, emit)
}

// sweepWorkers is SweepStream with state per worker: each worker — the one
// loop of a serial sweep included — calls worker once, before its first
// run, and runs every index it takes through the function it got. A run
// function that keeps state from one call to the next (SweepSeeds' and
// SweepSeedRange's re-armed clusters) is so never shared between
// goroutines; what it returns must not depend on which indices it ran
// before.
func sweepWorkers[T any](n, workers int, worker func() func(int) (T, error), emit func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path — also the reference semantics of the engine.
		run := worker()
		for i := 0; i < n; i++ {
			res, err := run(i)
			if err != nil {
				return err
			}
			if err := emit(i, res); err != nil {
				return err
			}
		}
		return nil
	}

	window := streamWindowPerWorker * workers
	if window > n {
		window = n
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// tickets bounds in-flight results; items carries them to the consumer.
	// Invariant: (running runs) + (items buffered) + (pending map entries)
	// ≤ window, so sends on items never block and memory stays O(window).
	tickets := make(chan struct{}, window)
	items := make(chan streamItem[T], window)
	for k := 0; k < window; k++ {
		tickets <- struct{}{}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			run := worker()
			for range tickets {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res, err := run(i)
				items <- streamItem[T]{i: i, res: res, err: err}
				// A run never blocks, so without this a busy worker reaches
				// the scheduler only when sysmon preempts it, every 10 ms —
				// and with every P busy that is the only time the GC's
				// fractional mark workers run. A mark phase stretched to
				// 10+ ms lets the heap triple past its goal (measured: 800
				// n=7 runs on 2 workers peak at 20–24 MiB resident without
				// the yield, 11 MiB with it).
				runtime.Gosched()
			}
		}()
	}

	// The consumer: buffer out-of-order arrivals, emit the in-order prefix,
	// return one ticket per emitted result.
	pending := make(map[int]streamItem[T], window)
	var firstErr error
	emitted := 0
consume:
	for emitted < n {
		for {
			it, ok := pending[emitted]
			if !ok {
				break
			}
			delete(pending, emitted)
			if it.err != nil {
				firstErr = it.err
				break consume
			}
			if err := emit(emitted, it.res); err != nil {
				firstErr = err
				break consume
			}
			emitted++
			tickets <- struct{}{}
		}
		if emitted >= n {
			break
		}
		it := <-items
		pending[it.i] = it
	}

	// Shut down: wake ticket-blocked workers, then drain the item channel so
	// in-flight workers finish their sends and exit.
	stop.Store(true)
	close(tickets)
	go func() {
		wg.Wait()
		close(items)
	}()
	for range items {
	}
	return firstErr
}
