package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFaultError(t *testing.T) {
	cases := []struct {
		f    *EngineFault
		want string
	}{
		{
			&EngineFault{Kind: FaultPanic, Engine: "parallel", Level: 3, Shard: 1, Instr: -1, Value: "boom"},
			"resilience: panic in parallel (level 3 shard 1): boom",
		},
		{
			&EngineFault{Kind: FaultPanic, Engine: "shard", Level: 2, Shard: 0, Instr: 17, Value: "x"},
			"resilience: panic in shard (level 2 shard 0 instr 17): x",
		},
		{
			Stall("shard", 4),
			"resilience: deadline in shard (level 4 shard -1): " + ErrBarrierStall.Error(),
		},
		{
			FromContext("pcset", context.Canceled),
			"resilience: canceled in pcset: context canceled",
		},
		{
			Subprocess("native", 12, 7, "boom\n", errors.New("child exited")),
			"resilience: subprocess in native (frame 12 exit 7): child exited",
		},
		{
			Protocol("native", 3, "", errors.New("crc mismatch")),
			"resilience: protocol in native (frame 3): crc mismatch",
		},
		{
			Protocol("native", -1, "", errors.New("handshake: wrong circuit hash")),
			"resilience: protocol in native: handshake: wrong circuit hash",
		},
	}
	for _, tc := range cases {
		if got := tc.f.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultPanic:      "panic",
		FaultDeadline:   "deadline",
		FaultCanceled:   "canceled",
		FaultCorruption: "corruption",
		FaultSubprocess: "subprocess",
		FaultProtocol:   "protocol",
	}
	if len(want) != NumFaultKinds {
		t.Fatalf("test covers %d kinds, NumFaultKinds = %d", len(want), NumFaultKinds)
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestTransient(t *testing.T) {
	cases := []struct {
		f    *EngineFault
		want bool
	}{
		{FromPanic("shard", 1, 0, -1, "boom"), true},
		{Stall("shard", 2), true},
		{FromContext("shard", context.Canceled), false},
		{FromContext("shard", context.DeadlineExceeded), false}, // caller deadline, not a stall
		{Corruption("parallel", 9), false},
		{Quarantined("shard"), false}, // wraps ErrQuarantined, not retryable
		{Subprocess("native", 3, -1, "", errors.New("signal: killed")), true},
		{Subprocess("native", -1, 1, "go build: ...", ErrChildBuild), false}, // rebuild cannot succeed
		{Protocol("native", 7, "", errors.New("crc mismatch")), true},
		{&EngineFault{Kind: FaultDeadline, Engine: "native", Level: -1, Shard: -1, Instr: -1, Frame: 2, Err: ErrChildStall}, true},
	}
	for i, tc := range cases {
		if got := tc.f.Transient(); got != tc.want {
			t.Errorf("case %d (%v): Transient() = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestFromPanicPassthrough(t *testing.T) {
	orig := &EngineFault{Kind: FaultPanic, Engine: "chaos", Level: 5, Shard: 2, Instr: -1, Value: "injected"}
	got := FromPanic("shard", 0, 0, -1, orig)
	if got != orig {
		t.Fatal("FromPanic rewrote a pre-located fault; injected coordinates lost")
	}
	plain := FromPanic("shard", 1, 2, 3, "runtime error")
	if plain.Level != 1 || plain.Shard != 2 || plain.Instr != 3 {
		t.Fatalf("FromPanic coordinates = (%d,%d,%d)", plain.Level, plain.Shard, plain.Instr)
	}
	if len(plain.Stack) == 0 {
		t.Fatal("FromPanic did not capture a stack")
	}
}

func TestAsFault(t *testing.T) {
	f := Stall("shard", 1)
	wrapped := fmt.Errorf("outer: %w", f)
	got, ok := AsFault(wrapped)
	if !ok || got != f {
		t.Fatal("AsFault did not find the fault through a wrap")
	}
	if !errors.Is(wrapped, ErrBarrierStall) {
		t.Fatal("stall cause not visible through errors.Is")
	}
	if _, ok := AsFault(errors.New("plain")); ok {
		t.Fatal("AsFault invented a fault")
	}
}

// TestPolicyBackoff pins the documented schedule — attempt n waits
// RetryBackoff×2ⁿ capped at 16×RetryBackoff, i.e. b, 2b, 4b, 8b, 16b,
// 16b, ... — for several bases, including far-out attempts where the cap
// must hold without overflow.
func TestPolicyBackoff(t *testing.T) {
	for _, base := range []time.Duration{
		time.Millisecond, 250 * time.Microsecond, 3 * time.Second,
	} {
		p := Policy{RetryBackoff: base}
		want := []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 16 * base, 16 * base}
		for i, w := range want {
			if got := p.Backoff(i); got != w {
				t.Errorf("base %v: Backoff(%d) = %v, want %v", base, i, got, w)
			}
		}
		for _, far := range []int{10, 63, 1000} {
			if got := p.Backoff(far); got != 16*base {
				t.Errorf("base %v: Backoff(%d) = %v, want cap %v", base, far, got, 16*base)
			}
		}
	}
	for _, p := range []Policy{{}, {RetryBackoff: -time.Second}} {
		if p.Backoff(3) != 0 {
			t.Errorf("RetryBackoff=%v should not back off", p.RetryBackoff)
		}
	}
}

func TestFaultErrorOmitsUnknownLocation(t *testing.T) {
	f := FromContext("parallel", context.Canceled)
	if s := f.Error(); strings.Contains(s, "level") {
		t.Fatalf("unknown coordinates rendered: %q", s)
	}
}
