package main

import (
	"runtime"
	"syscall"
	"time"
)

// hostSample is what one timed region cost the host.
type hostSample struct {
	wall    time.Duration
	cpu     time.Duration // process user + system time
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func (a *hostSample) add(b hostSample) {
	a.wall += b.wall
	a.cpu += b.cpu
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.gcs += b.gcs
}

// least is the field-by-field minimum: the best this piece of work did on
// each count, whichever repetition it was in.
func (a hostSample) least(b hostSample) hostSample {
	return hostSample{
		wall:    min(a.wall, b.wall),
		cpu:     min(a.cpu, b.cpu),
		mallocs: min(a.mallocs, b.mallocs),
		bytes:   min(a.bytes, b.bytes),
		gcs:     min(a.gcs, b.gcs),
	}
}

// measure times fn. Callers force a collection first, outside the timers,
// so fn starts from the same heap state whatever ran before it.
func measure(fn func()) hostSample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return hostSample{
		wall:    wall,
		cpu:     c1 - c0,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
