//go:build !amd64

package main

import "time"

var clockBase = time.Now()

// cycles is the portable clock: nanoseconds since the program started.
func cycles() int64 { return int64(time.Since(clockBase)) }
