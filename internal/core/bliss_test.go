package core

import "testing"

func TestBlacklistAfterStreak(t *testing.T) {
	var b bliss
	for i := 0; i < blissThreshold-1; i++ {
		b.onServed(0, 1)
		if b.blacklist(0) != 0 {
			t.Fatalf("blacklisted after only %d consecutive services", i+1)
		}
	}
	b.onServed(0, 1)
	if got := b.blacklist(0); got != 1<<1 {
		t.Fatalf("blacklist = %#x after a threshold streak of app 1, want only bit 1", got)
	}
}

func TestStreakResetOnInterleave(t *testing.T) {
	var b bliss
	for i := 0; i < 10; i++ {
		b.onServed(0, 0)
		b.onServed(0, 1)
	}
	if got := b.blacklist(0); got != 0 {
		t.Fatalf("interleaved applications blacklisted: %#x", got)
	}
}

func TestPeriodicClearing(t *testing.T) {
	var b bliss
	for i := 0; i < blissThreshold; i++ {
		b.onServed(0, 0)
	}
	if b.blacklist(0) != 1 {
		t.Fatal("setup: app 0 should be blacklisted")
	}
	if b.blacklist(blissClearInterval-1) != 1 {
		t.Fatal("blacklist cleared before the interval elapsed")
	}
	if b.blacklist(blissClearInterval+1) != 0 {
		t.Fatal("blacklist not cleared after the interval")
	}
}

// TestRepeatStreakKeepsOneBit: an application that keeps its streak
// past the threshold stays blacklisted by its one bit, and no other
// application's bit is set.
func TestRepeatStreakKeepsOneBit(t *testing.T) {
	var b bliss
	for i := 1; i <= 2*blissThreshold; i++ {
		b.onServed(0, 2)
		want := uint64(0)
		if i >= blissThreshold {
			want = 1 << 2
		}
		if got := b.blacklist(0); got != want {
			t.Fatalf("after %d services of app 2: blacklist = %#x, want %#x", i, got, want)
		}
	}
}
