package desim

import "testing"

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	e.Ticker(0, func() {})
}

func TestTickerCancelFromWithinCallback(t *testing.T) {
	e := New()
	count := 0
	var cancel func()
	cancel = e.Ticker(Millisecond, func() {
		count++
		if count == 2 {
			cancel()
		}
	})
	e.RunUntil(Time(10 * Millisecond))
	if count != 2 {
		t.Fatalf("count = %d, want 2 (self-cancel)", count)
	}
}
