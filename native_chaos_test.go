package udsim

import (
	"strings"
	"testing"
	"time"

	"udsim/internal/native"
	"udsim/internal/vectors"
)

// The native chaos drill: every way the child side of the protocol can
// misbehave — SIGKILL mid-batch, a truncated results frame, a stderr
// flood, a wedge after the handshake — exercised through the public
// facade. The invariants mirror the in-process chaos suite:
//
//   - every injected failure yields a typed *EngineFault with the right
//     kind and witness (exit status, stderr tail, frame coordinate) —
//     never a hang, never an error surfaced to the stream;
//   - a transient failure is healed by respawn (child serving again), a
//     persistent one ends in quarantine with every subsequent vector on
//     the in-process engine;
//   - the settled outputs are bit-identical to a plain sequential
//     engine throughout.

// nativeDrillPolicy keeps the drills fast: a tight per-batch budget and
// two respawns before quarantine.
func nativeDrillPolicy() GuardPolicy {
	return GuardPolicy{
		LevelBudget:  400 * time.Millisecond,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
}

// openNative builds a native-backed engine over c432/parallel with the
// drill policy, chaos options appended.
func openNative(t *testing.T, opts ...Option) (*NativeSim, *Observer, [][]bool, []bool) {
	t.Helper()
	requireGoTool(t)
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := vectors.Random(24, len(c.Inputs), 707).Bits
	ob := NewObserver(ObserverConfig{})
	opts = append([]Option{WithNativePolicy(nativeDrillPolicy()), WithObserver(ob)}, opts...)
	eng, err := Open(c, TechParallel, opts...)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := eng.(*NativeSim)
	if !ok {
		t.Fatalf("Open returned %T, want *NativeSim", eng)
	}
	t.Cleanup(n.Close)
	if err := n.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	return n, ob, vecs, referenceFinals(t, c, TechParallel, vecs)
}

// streamInBatches drives the vectors through four six-vector batches,
// checking that no injected failure ever surfaces as a stream error.
func streamInBatches(t *testing.T, n *NativeSim, vecs [][]bool) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for lo := 0; lo < len(vecs); lo += 6 {
			if err := n.ApplyStream(vecs[lo : lo+6]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("native stream surfaced an error instead of recovering: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("native stream hung: the supervisor did not bound the failure")
	}
}

func TestNativeChaosKillMidBatch(t *testing.T) {
	kill := &native.KillAtBatch{Batch: 2}
	n, ob, vecs, want := openNative(t, WithNativeDisruptor(kill))
	streamInBatches(t, n, vecs)

	if kill.Kills != 1 {
		t.Fatalf("disruptor killed %d times, want exactly 1", kill.Kills)
	}
	if n.Degraded() {
		t.Fatalf("one SIGKILL quarantined the child instead of respawning: %v", n.LastFault())
	}
	f := n.LastFault()
	if f == nil || f.Kind != FaultSubprocess {
		t.Fatalf("LastFault = %v, want a subprocess fault", f)
	}
	if f.ExitStatus != -1 {
		t.Fatalf("ExitStatus = %d for a signaled child, want -1", f.ExitStatus)
	}
	if got := n.SupervisorState(); got != "serving" {
		t.Fatalf("SupervisorState() = %q after respawn, want serving", got)
	}
	nativeFinalsMatch(t, n, want)
	snap := ob.Snapshot()
	if snap.Native.Respawns == 0 {
		t.Fatalf("native counters: %+v, want a recorded respawn", snap.Native)
	}
	if snap.Native.Fallbacks != 0 {
		t.Fatalf("native counters: %+v, want no fallback after a successful respawn", snap.Native)
	}
}

func TestNativeChaosTruncatedFrame(t *testing.T) {
	n, ob, vecs, want := openNative(t, WithNativeChaos(NativeChildChaos{TruncateAtBatch: 1}))
	streamInBatches(t, n, vecs)

	if !n.Degraded() {
		t.Fatal("a persistently truncating child was not quarantined")
	}
	f := n.LastFault()
	if f == nil || f.Kind != FaultProtocol {
		t.Fatalf("LastFault = %v, want a protocol fault", f)
	}
	if f.Frame != 1 {
		t.Fatalf("fault frame coordinate = %d, want 1", f.Frame)
	}
	if got := n.SupervisorState(); got != "quarantined" {
		t.Fatalf("SupervisorState() = %q, want quarantined", got)
	}
	if got := n.ExecStrategy(); got == ExecNative {
		t.Fatal("ExecStrategy() still reports native after quarantine")
	}
	nativeFinalsMatch(t, n, want)
	snap := ob.Snapshot()
	if snap.Native.ProtocolErrors == 0 || snap.Native.Fallbacks == 0 {
		t.Fatalf("native counters: %+v, want protocol errors and a fallback", snap.Native)
	}
	if snap.Guard.Protocols == 0 {
		t.Fatalf("guard fault counters: %+v, want a protocol entry", snap.Guard)
	}
}

func TestNativeChaosStderrFlood(t *testing.T) {
	n, _, vecs, want := openNative(t, WithNativeChaos(NativeChildChaos{FloodStderrAtBatch: 1}))
	streamInBatches(t, n, vecs)

	if !n.Degraded() {
		t.Fatal("a persistently crashing (flooding) child was not quarantined")
	}
	f := n.LastFault()
	if f == nil || f.Kind != FaultSubprocess {
		t.Fatalf("LastFault = %v, want a subprocess fault", f)
	}
	if f.ExitStatus != 3 {
		t.Fatalf("ExitStatus = %d, want the flood child's exit 3", f.ExitStatus)
	}
	if f.Stderr == "" || !strings.Contains(f.Stderr, "zzzz") {
		t.Fatalf("fault carries no stderr tail witness: %q", f.Stderr)
	}
	nativeFinalsMatch(t, n, want)
}

func TestNativeChaosWedge(t *testing.T) {
	t.Run("after-handshake", func(t *testing.T) {
		n, _, vecs, want := openNative(t, WithNativeChaos(NativeChildChaos{WedgeAfterHandshake: true}))
		streamInBatches(t, n, vecs)
		if !n.Degraded() {
			t.Fatal("a wedged child was not quarantined")
		}
		f := n.LastFault()
		if f == nil || f.Kind != FaultDeadline {
			t.Fatalf("LastFault = %v, want a deadline fault", f)
		}
		nativeFinalsMatch(t, n, want)
	})
	t.Run("at-batch", func(t *testing.T) {
		n, _, vecs, want := openNative(t, WithNativeChaos(NativeChildChaos{WedgeAtBatch: 1}))
		streamInBatches(t, n, vecs)
		if !n.Degraded() {
			t.Fatal("a wedged child was not quarantined")
		}
		if f := n.LastFault(); f == nil || f.Kind != FaultDeadline {
			t.Fatalf("LastFault = %v, want a deadline fault", f)
		}
		nativeFinalsMatch(t, n, want)
	})
}

// TestNativeChaosExport checks the udsim_native_* counter families
// reach the Prometheus text export after a drill.
func TestNativeChaosExport(t *testing.T) {
	n, ob, vecs, _ := openNative(t, WithNativeChaos(NativeChildChaos{CrashAtBatch: 2}))
	streamInBatches(t, n, vecs)
	if n.LastFault() == nil {
		t.Fatal("crash drill recorded no fault")
	}
	var sb strings.Builder
	if err := ob.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, family := range []string{
		"udsim_native_builds_total",
		"udsim_native_build_seconds_total",
		"udsim_native_respawns_total",
		"udsim_native_protocol_errors_total",
		"udsim_native_fallbacks_total",
		"udsim_native_frames_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" counter") {
			t.Errorf("export missing native family %s", family)
		}
	}
}
