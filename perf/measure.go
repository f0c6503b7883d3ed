package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	// setupRuns is how many fresh processes setup_s is the median of.
	setupRuns = 7
	// minReps is the fewest measured repetitions of a run, whatever --seconds.
	minReps = 3
)

// setUp is everything a run does before its first measured repetition:
// generate the inputs from the seed and make one warm-up pass at 1/16 of the
// workload's size, so tables are built, code paths are faulted in and the
// heap has its shape. It returns the full-size instance.
func setUp(w workload, opt options) (instance, error) {
	in := w.new(opt.seed, opt.scale)
	if _, _, err := w.new(opt.seed, opt.scale/16).run(false); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return in, nil
}

// setupSeconds times set-up the way a user pays for it — process start,
// package initialisation, input generation, warm-up — by running this
// program with -setup-only in fresh processes.
func setupSeconds(w workload, opt options) (times []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "-setup-only",
			"-workload", w.name,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: set-up process: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// measure is the end-to-end pass: tracing, telemetry and the Recorder are
// off. It repeats the workload — the same inputs every time — in a closed
// loop for opt.seconds, reports each host metric as the median over the
// repetitions, and requires every repetition to produce the identical
// simulated sample.
func measure(w workload, opt options) (*record, error) {
	setups, err := setupSeconds(w, opt)
	if err != nil {
		return nil, err
	}
	in, err := setUp(w, opt)
	if err != nil {
		return nil, err
	}

	var (
		first              sample
		opsPerS            []float64
		allocs, allocBytes []float64
		rec                = &record{result: result{Correct: true}, Spread: map[string]float64{}}
		before, after      runtime.MemStats
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for rec.Reps < minReps || time.Now().Before(deadline) {
		runtime.GC() // every repetition starts from the same heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		s, _, err := in.run(false)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runtime.ReadMemStats(&after)

		if rec.Reps == 0 {
			first = s
		} else if s != first {
			rec.Correct = false
			rec.Why = fmt.Sprintf("repetition %d is not the repetition before it: %+v != %+v", rec.Reps, s, first)
		}
		rec.Reps++
		rec.Attempted += s.Attempted
		rec.Failed += s.Failed
		if s.Failed > 0 && rec.Why == "" {
			rec.Why = s.Why
		}
		deliveries := float64(max(s.Deliveries, 1))
		opsPerS = append(opsPerS, float64(s.Ops)/wall)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)*1000/deliveries)
		allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc)/1024*1000/deliveries)
	}
	rec.Correct = rec.Correct && rec.Failed == 0

	m := metricSet{}
	for name, reps := range map[string][]float64{
		"ops_per_s":              opsPerS,
		"setup_s":                setups,
		"allocs_per_kdelivery":   allocs,
		"alloc_kb_per_kdelivery": allocBytes,
	} {
		m.set(name, median(reps))
		rec.Spread[name] = spread(reps)
	}
	// Peak resident set of this process, one workload per process. (The Go
	// runtime's MemStats.Sys moves in 4 MiB steps, a third of a small run's
	// footprint, so it reads bimodally from run to run.)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	m.set("mem_rss_peak_mb", float64(ru.Maxrss)/1024)
	first.simulatedMetrics(m)
	rec.Metrics = m.fill(endToEnd)
	return rec, nil
}
