package transport

import (
	"testing"
	"time"
)

// BenchmarkInprocSend measures mailbox throughput: one sender, one
// draining receiver; Quiesce bounds the measured region.
func BenchmarkInprocSend(b *testing.B) {
	net := NewInproc()
	net.Listen("sink", HandlerFunc(func(Addr, any) {}))
	src, err := net.Listen("src", HandlerFunc(func(Addr, any) {}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send("sink", i); err != nil {
			b.Fatal(err)
		}
	}
	net.Quiesce()
}

// BenchmarkRealClockArmStop measures arming a wall-clock timer and
// stopping it before it fires, the fate of almost every recovery timer.
func BenchmarkRealClockArmStop(b *testing.B) {
	var h TimerHandler = TimerFunc(func(uint64) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := RealClock{}.Arm(time.Hour, h, uint64(i))
		tm.Stop()
	}
}
