package native

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/resilience"
)

// State is the supervisor's lifecycle position.
type State int

const (
	// StateBuilding: the child module is being written and `go build`-ed.
	StateBuilding State = iota
	// StateHandshake: the child is spawned and the hello frame pending.
	StateHandshake
	// StateServing: the handshake verified; batches flow.
	StateServing
	// StateRespawning: a fault killed the child; backoff and respawn are
	// in progress.
	StateRespawning
	// StateQuarantined: MaxRetries exhausted; the child stays dead and
	// the caller must fall back to the in-process engine.
	StateQuarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateHandshake:
		return "handshake"
	case StateServing:
		return "serving"
	case StateRespawning:
		return "respawning"
	case StateQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config configures a Supervisor.
type Config struct {
	// Engine names the backend in fault witnesses ("native/parallel").
	Engine string
	// Technique is the handshake technique tag ("parallel", "pcset").
	Technique string
	// CircuitHash is the canonical circuit identity the child must echo
	// (see HashBench).
	CircuitHash string
	// Layout is the engine state layout baked into the child driver.
	Layout Layout
	// Init and Sim are the validated compiled programs the child renders
	// and runs — init first, inputs broadcast, then sim, per vector.
	Init, Sim *program.Program
	// Policy supplies the per-batch deadline (LevelBudget), the respawn
	// budget (MaxRetries) and the backoff schedule (RetryBackoff).
	Policy resilience.Policy
	// BuildTimeout bounds the out-of-process `go build` and the
	// handshake read; 0 means two minutes.
	BuildTimeout time.Duration
	// GoTool is the go binary to build with; "" resolves from PATH.
	GoTool string
	// Chaos bakes deterministic misbehaviors into the child (drills).
	Chaos ChildChaos
	// Disrupt is the parent-side chaos seam (drills); nil in production.
	Disrupt Disruptor
	// Obs receives the udsim_native_* counters; may be nil.
	Obs *obs.Observer
}

func (c *Config) buildTimeout() time.Duration {
	if c.BuildTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.BuildTimeout
}

// Supervisor owns one native child's full lifecycle. It is not safe for
// concurrent use — like the engines it backs, one goroutine drives it.
type Supervisor struct {
	cfg      Config
	goTool   string
	dir      string
	bin      string
	state    State
	seq      uint32
	pingSeq  uint32
	child    *childProc
	lastExit int
	lastTail string
	last     *resilience.EngineFault
	buildDur time.Duration
	closed   bool
}

type childProc struct {
	cmd    *exec.Cmd
	stdin  *os.File
	stdout *os.File
	br     *bufio.Reader
	stderr *stderrRing
}

// Pid implements ChildHandle.
func (c *childProc) Pid() int { return c.cmd.Process.Pid }

// Kill implements ChildHandle.
func (c *childProc) Kill() error { return c.cmd.Process.Kill() }

// New generates the child module, builds it out of process under an
// os.MkdirTemp workspace, spawns the child and verifies the handshake.
// Any failure removes the workspace and returns a typed
// *resilience.EngineFault (ErrChildBuild for build failures, which are
// permanent). Close releases the workspace.
func New(cfg Config) (*Supervisor, error) {
	s := &Supervisor{cfg: cfg, state: StateBuilding}
	if err := s.checkLayout(); err != nil {
		return nil, err
	}
	s.goTool = cfg.GoTool
	if s.goTool == "" {
		tool, err := exec.LookPath("go")
		if err != nil {
			return nil, fmt.Errorf("native: go toolchain not on PATH: %w", err)
		}
		s.goTool = tool
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	if f := s.spawn(); f != nil {
		s.removeWorkspace()
		return nil, f
	}
	return s, nil
}

func (s *Supervisor) checkLayout() error {
	l := &s.cfg.Layout
	switch l.WordBits {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("native: unsupported word width %d", l.WordBits)
	}
	if l.NumVars <= 0 || len(l.Inputs) == 0 || len(l.Outputs) == 0 {
		return fmt.Errorf("native: degenerate layout (%d vars, %d inputs, %d outputs)",
			l.NumVars, len(l.Inputs), len(l.Outputs))
	}
	if s.cfg.Init == nil || s.cfg.Sim == nil {
		return errors.New("native: missing compiled programs")
	}
	return nil
}

// build writes the workspace and runs `go build` with the build
// deadline; on failure the workspace is removed before returning.
func (s *Supervisor) build() error {
	files, err := generateChild(&s.cfg)
	if err != nil {
		return err
	}
	dir, err := writeWorkspace(files)
	if err != nil {
		return err
	}
	s.dir = dir
	s.bin = filepath.Join(dir, "child")
	start := time.Now()
	cmd := exec.Command(s.goTool, "build", "-o", s.bin, ".")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	timer := time.AfterFunc(s.cfg.buildTimeout(), func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	})
	err = cmd.Run()
	timedOut := !timer.Stop()
	s.buildDur = time.Since(start)
	if s.cfg.Obs != nil {
		s.cfg.Obs.AddNativeBuild(s.buildDur)
	}
	if err != nil {
		s.removeWorkspace()
		cause := fmt.Errorf("%w: %v", resilience.ErrChildBuild, err)
		if timedOut {
			cause = fmt.Errorf("%w: timed out after %v", resilience.ErrChildBuild, s.cfg.buildTimeout())
		}
		return resilience.Subprocess(s.cfg.Engine, -1, exitCode(err), tailOf(out.String()), cause)
	}
	return nil
}

// writeWorkspace creates the temp-dir module and writes the child
// sources into it; on any write failure the directory is removed.
func writeWorkspace(files map[string]string) (string, error) {
	dir, err := os.MkdirTemp("", "udsim-native-")
	if err != nil {
		return "", err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}

func (s *Supervisor) removeWorkspace() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// spawn starts the child and verifies its handshake. On failure the
// child is reaped and a typed fault returned.
func (s *Supervisor) spawn() *resilience.EngineFault {
	s.state = StateHandshake
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return resilience.Subprocess(s.cfg.Engine, -1, -1, "", err)
	}
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		stdinR.Close()
		stdinW.Close()
		return resilience.Subprocess(s.cfg.Engine, -1, -1, "", err)
	}
	ring := &stderrRing{}
	cmd := exec.Command(s.bin)
	cmd.Stdin = stdinR
	cmd.Stdout = stdoutW
	cmd.Stderr = ring
	if err := cmd.Start(); err != nil {
		stdinR.Close()
		stdinW.Close()
		stdoutR.Close()
		stdoutW.Close()
		return resilience.Subprocess(s.cfg.Engine, -1, -1, "", err)
	}
	stdinR.Close()
	stdoutW.Close()
	s.child = &childProc{
		cmd: cmd, stdin: stdinW, stdout: stdoutR,
		br: bufio.NewReaderSize(stdoutR, 1<<16), stderr: ring,
	}
	stdoutR.SetReadDeadline(time.Now().Add(s.cfg.buildTimeout()))
	typ, payload, err := readFrame(s.child.br)
	if err != nil {
		return s.fault(-1, fmt.Errorf("native: handshake: %w", err))
	}
	s.countFrames(0, 1)
	if typ != frameHello {
		return s.protoFault(-1, fmt.Errorf("native: handshake: unexpected frame type %d", typ))
	}
	h, err := parseHello(payload)
	if err != nil {
		return s.protoFault(-1, fmt.Errorf("native: handshake: %w", err))
	}
	if err := s.verifyHello(h); err != nil {
		return s.protoFault(-1, err)
	}
	s.state = StateServing
	return nil
}

func (s *Supervisor) verifyHello(h hello) error {
	l := &s.cfg.Layout
	switch {
	case h.Version != protoVersion:
		return fmt.Errorf("native: handshake: protocol version %d, want %d", h.Version, protoVersion)
	case int(h.WordBits) != l.WordBits:
		return fmt.Errorf("native: handshake: word width %d, want %d", h.WordBits, l.WordBits)
	case int(h.NumVars) != l.NumVars:
		return fmt.Errorf("native: handshake: %d state words, want %d", h.NumVars, l.NumVars)
	case int(h.NumPI) != len(l.Inputs):
		return fmt.Errorf("native: handshake: %d inputs, want %d", h.NumPI, len(l.Inputs))
	case int(h.NumPO) != len(l.Outputs):
		return fmt.Errorf("native: handshake: %d outputs, want %d", h.NumPO, len(l.Outputs))
	case h.Hash != s.cfg.CircuitHash:
		return fmt.Errorf("native: handshake: circuit hash %.12s..., want %.12s...", h.Hash, s.cfg.CircuitHash)
	case h.Technique != s.cfg.Technique:
		return fmt.Errorf("native: handshake: technique %q, want %q", h.Technique, s.cfg.Technique)
	}
	return nil
}

// RunBatch simulates the vectors on the child and returns each vector's
// packed primary-output bits. On a fault it kills the child, applies
// the capped-backoff schedule and respawns, re-sending the whole batch
// (settled outputs depend only on the vector, so replay is safe); after
// Policy.MaxRetries respawns it quarantines and returns the last typed
// fault — the caller then owns the in-process fallback.
func (s *Supervisor) RunBatch(vecs [][]bool) ([][]byte, error) {
	if s.state == StateQuarantined || s.closed {
		return nil, resilience.Subprocess(s.cfg.Engine, -1, s.lastExit, "", resilience.ErrQuarantined)
	}
	if len(vecs) == 0 {
		return nil, nil
	}
	s.seq++
	seq := s.seq
	frame := encodeBatch(seq, len(s.cfg.Layout.Inputs), vecs)
	var fault *resilience.EngineFault
	for attempt := 0; attempt <= s.cfg.Policy.MaxRetries; attempt++ {
		if attempt > 0 {
			s.state = StateRespawning
			time.Sleep(s.cfg.Policy.Backoff(attempt - 1))
			if s.cfg.Obs != nil {
				s.cfg.Obs.AddNativeRespawn()
			}
		}
		if s.child == nil {
			if f := s.spawn(); f != nil {
				fault = f
				s.noteFault(f)
				s.killChild()
				continue
			}
		}
		res, f := s.exchange(seq, frame, len(vecs))
		if f == nil {
			return res, nil
		}
		fault = f
		s.noteFault(f)
		s.killChild()
	}
	s.state = StateQuarantined
	return nil, fault
}

// exchange writes one batch frame and reads the results frame under the
// per-batch deadline.
func (s *Supervisor) exchange(seq uint32, frame []byte, count int) ([][]byte, *resilience.EngineFault) {
	c := s.child
	deadline := time.Now().Add(s.batchBudget(count))
	out := frame
	if s.cfg.Disrupt != nil {
		out = s.cfg.Disrupt.MangleBatch(seq, append([]byte(nil), frame...))
	}
	c.stdin.SetWriteDeadline(deadline)
	if _, err := c.stdin.Write(out); err != nil {
		return nil, s.fault(int64(seq), err)
	}
	s.countFrames(1, 0)
	if s.cfg.Disrupt != nil {
		s.cfg.Disrupt.BatchSent(seq, c)
	}
	poBytes := (len(s.cfg.Layout.Outputs) + 7) / 8
	for {
		c.stdout.SetReadDeadline(deadline)
		typ, payload, err := readFrame(c.br)
		if err != nil {
			return nil, s.fault(int64(seq), err)
		}
		s.countFrames(0, 1)
		switch typ {
		case framePong:
			continue
		case frameResults:
			if len(payload) < 8 {
				return nil, s.protoFault(int64(seq), errTruncated)
			}
			rseq := binary.LittleEndian.Uint32(payload)
			rcount := int(binary.LittleEndian.Uint32(payload[4:]))
			if rseq != seq || rcount != count || len(payload) != 8+count*poBytes {
				return nil, s.protoFault(int64(seq),
					fmt.Errorf("native: results desync: seq %d/%d count %d/%d len %d",
						rseq, seq, rcount, count, len(payload)))
			}
			body := payload[8:]
			res := make([][]byte, count)
			for i := range res {
				res[i] = append([]byte(nil), body[i*poBytes:(i+1)*poBytes]...)
			}
			return res, nil
		default:
			return nil, s.protoFault(int64(seq), fmt.Errorf("native: unexpected frame type %d", typ))
		}
	}
}

// encodeBatch renders the batch frame: seq, count, then count packed
// primary-input vectors.
func encodeBatch(seq uint32, numPI int, vecs [][]bool) []byte {
	piBytes := (numPI + 7) / 8
	payload := make([]byte, 8, 8+len(vecs)*piBytes)
	binary.LittleEndian.PutUint32(payload, seq)
	binary.LittleEndian.PutUint32(payload[4:], uint32(len(vecs)))
	scratch := make([]byte, piBytes)
	for _, v := range vecs {
		payload = append(payload, packBits(scratch, v)...)
	}
	return appendFrame(nil, frameBatch, payload)
}

// batchBudget is the per-batch deadline: Policy.LevelBudget plus a
// per-vector share of it, so a 5000-vector batch is not held to a
// single level's budget. 0 disables the deadline entirely.
func (s *Supervisor) batchBudget(count int) time.Duration {
	b := s.cfg.Policy.LevelBudget
	if b <= 0 {
		return 24 * time.Hour
	}
	return b + b*time.Duration(count)/64
}

// Ping sends a liveness probe and waits for the echo under the batch
// budget — the piggybacked health check the facade and drills use.
func (s *Supervisor) Ping() error {
	if s.child == nil {
		return resilience.Subprocess(s.cfg.Engine, -1, s.lastExit, "", resilience.ErrQuarantined)
	}
	s.pingSeq++
	var nonce [4]byte
	binary.LittleEndian.PutUint32(nonce[:], s.pingSeq)
	deadline := time.Now().Add(s.batchBudget(1))
	s.child.stdin.SetWriteDeadline(deadline)
	if _, err := s.child.stdin.Write(appendFrame(nil, framePing, nonce[:])); err != nil {
		f := s.fault(-1, err)
		s.killChild()
		return f
	}
	s.countFrames(1, 0)
	s.child.stdout.SetReadDeadline(deadline)
	typ, payload, err := readFrame(s.child.br)
	if err != nil {
		f := s.fault(-1, err)
		s.killChild()
		return f
	}
	s.countFrames(0, 1)
	if typ != framePong || !bytes.Equal(payload, nonce[:]) {
		f := s.protoFault(-1, fmt.Errorf("native: ping echo mismatch (frame type %d)", typ))
		s.killChild()
		return f
	}
	return nil
}

// fault classifies a batch-path error into a typed EngineFault:
// deadline errors become FaultDeadline/ErrChildStall, protocol
// sentinels become FaultProtocol, and everything else (EOF, EPIPE,
// spawn errors) becomes FaultSubprocess with the child's exit status
// and stderr tail.
func (s *Supervisor) fault(frame int64, err error) *resilience.EngineFault {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		f := &resilience.EngineFault{
			Kind: resilience.FaultDeadline, Engine: s.cfg.Engine,
			Level: -1, Instr: -1,
			Frame: frame, Stderr: s.stderrTail(), Err: resilience.ErrChildStall,
		}
		return f
	case errors.Is(err, errCRC), errors.Is(err, errOversized), errors.Is(err, errTruncated):
		return s.protoFault(frame, err)
	default:
		exit := s.killChild()
		return resilience.Subprocess(s.cfg.Engine, frame, exit, s.lastTail, err)
	}
}

func (s *Supervisor) protoFault(frame int64, err error) *resilience.EngineFault {
	if s.cfg.Obs != nil {
		s.cfg.Obs.AddNativeProtocolError()
	}
	return resilience.Protocol(s.cfg.Engine, frame, s.stderrTail(), err)
}

// noteFault records the fault in the supervisor and the guard-fault
// counter family (kind subprocess/protocol/deadline), so intermediate
// faults recovered by a successful respawn still leave a trace.
func (s *Supervisor) noteFault(f *resilience.EngineFault) {
	s.last = f
	if s.cfg.Obs != nil {
		s.cfg.Obs.AddGuardFault(f.Kind)
	}
}

// killChild reaps the child (idempotently) and returns its exit code
// (-1 when signaled). The stderr tail survives into lastTail — Wait
// guarantees the exec-internal stderr copy has finished, so the tail is
// complete.
func (s *Supervisor) killChild() int {
	c := s.child
	if c == nil {
		return s.lastExit
	}
	s.child = nil
	c.cmd.Process.Kill()
	err := c.cmd.Wait()
	c.stdin.Close()
	c.stdout.Close()
	s.lastExit = exitCode(err)
	s.lastTail = c.stderr.Tail()
	return s.lastExit
}

// exitCode extracts a process exit status from a Wait/Run error: 0 on
// nil, the code for clean exits, -1 for signals and non-exec errors.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

func (s *Supervisor) stderrTail() string {
	if s.child == nil {
		return s.lastTail
	}
	return s.child.stderr.Tail()
}

func (s *Supervisor) countFrames(sent, received int64) {
	if s.cfg.Obs == nil {
		return
	}
	if sent != 0 {
		s.cfg.Obs.AddNativeFramesSent(sent)
	}
	if received != 0 {
		s.cfg.Obs.AddNativeFramesReceived(received)
	}
}

// SetObserver redirects the udsim_native_* counters (nil detaches).
func (s *Supervisor) SetObserver(o *obs.Observer) { s.cfg.Obs = o }

// State returns the supervisor's lifecycle position.
func (s *Supervisor) State() State { return s.state }

// Quarantined reports whether the respawn budget is exhausted.
func (s *Supervisor) Quarantined() bool { return s.state == StateQuarantined }

// LastFault returns the most recent typed fault (nil if none).
func (s *Supervisor) LastFault() *resilience.EngineFault { return s.last }

// BuildTime returns the out-of-process `go build` wall time.
func (s *Supervisor) BuildTime() time.Duration { return s.buildDur }

// Dir returns the temp workspace (empty after Close) — test seam for
// the hygiene suite.
func (s *Supervisor) Dir() string { return s.dir }

// Kill SIGKILLs the live child (test seam); the next batch respawns.
func (s *Supervisor) Kill() {
	if s.child != nil {
		s.child.Kill()
	}
}

// Close asks the child to quit, reaps it and removes the workspace.
// Idempotent.
func (s *Supervisor) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if c := s.child; c != nil {
		c.stdin.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := c.stdin.Write(appendFrame(nil, frameQuit, nil)); err == nil {
			s.countFrames(1, 0)
		}
	}
	s.killChild()
	s.removeWorkspace()
	return nil
}

// stderrRing keeps the tail of the child's stderr stream: the last
// tailCap bytes, however much the child floods. exec.Cmd copies the
// child's stderr into it from its own goroutine; Tail may race that
// copy, so both sides lock.
type stderrRing struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 4096

// Write implements io.Writer.
func (r *stderrRing) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(p) >= tailCap {
		r.buf = append(r.buf[:0], p[len(p)-tailCap:]...)
		return len(p), nil
	}
	r.buf = append(r.buf, p...)
	if over := len(r.buf) - tailCap; over > 0 {
		r.buf = append(r.buf[:0], r.buf[over:]...)
	}
	return len(p), nil
}

// Tail returns the captured stderr tail.
func (r *stderrRing) Tail() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return string(r.buf)
}

// tailOf truncates a build log to the witness tail.
func tailOf(s string) string {
	if len(s) <= tailCap {
		return s
	}
	return s[len(s)-tailCap:]
}
