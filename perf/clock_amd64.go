package main

// cycles reads the CPU's time-stamp counter. The tracer reads its clock
// twice per delivery; at ~10 ns a read against ~40 ns for time.Since this
// is what keeps trace.overhead_share well under its 0.25 limit on the
// workloads whose deliveries cost ~450 ns. The counter is invariant and
// synchronised across cores on every CPU the kernel accepts "tsc" as a
// clocksource on; tracer.nsPerTick calibrates it against the wall clock
// over the whole traced pass.
func cycles() int64
