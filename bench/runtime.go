package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"squid/internal/sfc"
)

// cpuSample is a reading of the process's CPU clocks.
type cpuSample struct {
	gc, total float64       // runtime/metrics CPU classes, seconds
	rusage    time.Duration // user + system time from getrusage
}

func readCPU() cpuSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var c cpuSample
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.total = samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.rusage = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

var calibCurve = sfc.MustHilbert(3, 21)

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed Hilbert-encode loop and returns milliseconds. It
// says which speed regime the machine was in, so that a slow run can be
// read as a slow machine.
func calibrate() float64 {
	pt := []uint64{1, 2, 3}
	start := time.Now()
	var acc uint64
	for i := 0; i < calibIters; i++ {
		pt[0], pt[1], pt[2] = uint64(i), uint64(i*7)&0x1fffff, uint64(i*13)&0x1fffff
		acc += calibCurve.Encode(pt)
	}
	calibSink = acc
	return ms(time.Since(start))
}
