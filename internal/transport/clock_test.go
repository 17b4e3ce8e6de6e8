package transport

import (
	"testing"
	"time"
)

// tagRecorder receives each Fire on a channel, so a test can wait for a
// timer that the runtime fires on its own goroutine.
type tagRecorder chan uint64

func (r tagRecorder) Fire(tag uint64) { r <- tag }

// expectFire waits for exactly one Fire carrying tag, then checks that no
// second one follows within quiet.
func expectFire(t *testing.T, fired tagRecorder, tag uint64, quiet time.Duration) {
	t.Helper()
	select {
	case got := <-fired:
		if got != tag {
			t.Errorf("Fire(%d), want Fire(%d)", got, tag)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("timer tagged %d never fired", tag)
	}
	select {
	case got := <-fired:
		t.Errorf("timer fired again: Fire(%d)", got)
	case <-time.After(quiet):
	}
}

func TestRealClockArmFiresOnceWithTag(t *testing.T) {
	fired := make(tagRecorder, 4)
	RealClock{}.Arm(time.Millisecond, fired, 42)
	expectFire(t, fired, 42, 20*time.Millisecond)
}

func TestRealClockStop(t *testing.T) {
	fired := make(tagRecorder, 4)
	tm := RealClock{}.Arm(50*time.Millisecond, fired, 1)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	select {
	case got := <-fired:
		t.Errorf("stopped timer fired: Fire(%d)", got)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestRealClockReset(t *testing.T) {
	fired := make(tagRecorder, 4)
	tm := RealClock{}.Arm(time.Hour, fired, 7)
	if !tm.Reset(time.Millisecond) {
		t.Error("Reset on a pending timer should report true")
	}
	expectFire(t, fired, 7, 20*time.Millisecond)
	if tm.Stop() {
		t.Error("Stop after the timer fired should report false")
	}
}

func TestRealClockZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer: Stop should report false")
	}
	if tm.Reset(time.Millisecond) {
		t.Error("zero Timer: Reset should report false")
	}
}
