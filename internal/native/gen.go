package native

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"udsim/internal/bench85"
	"udsim/internal/circuit"
	"udsim/internal/codegen/ir"
	"udsim/internal/engine"
	"udsim/internal/program"
)

// InputField describes how one primary input lands in the child's state
// arena — the engine's own input-writer record (engine.InputField).
type InputField = engine.InputField

// OutputBit locates one primary output's settled value: state word Slot,
// bit Bit.
type OutputBit struct {
	Slot int32
	Bit  uint8
}

// Layout is the engine state layout the generated child driver bakes in.
type Layout struct {
	// WordBits is the logical word width W (8, 16, 32 or 64).
	WordBits int
	// NumVars sizes the child's state arena.
	NumVars int
	// Inputs maps primary input index to its broadcast field.
	Inputs []InputField
	// Outputs maps primary output index to its settled bit.
	Outputs []OutputBit
}

// ChildChaos bakes deterministic misbehaviors into the generated child
// driver — the chaos drills' way of producing a child that crashes,
// wedges, truncates or corrupts on cue. The zero value generates a
// well-behaved child. Batch coordinates are 1-based sequence numbers;
// because a respawned child replays the same batch, a baked misbehavior
// repeats on every respawn and drives the supervisor to quarantine.
type ChildChaos struct {
	// CrashAtBatch makes the child os.Exit(7) instead of answering the
	// Nth batch it sees.
	CrashAtBatch int
	// WedgeAfterHandshake makes the child answer the hello and then
	// block forever without reading another frame.
	WedgeAfterHandshake bool
	// WedgeAtBatch makes the child read the Nth batch and then block
	// forever without answering it.
	WedgeAtBatch int
	// TruncateAtBatch makes the child write half of the Nth results
	// frame and exit(4) — a mid-frame EOF at the parent.
	TruncateAtBatch int
	// CorruptCRCAtBatch makes the child flip the CRC of the Nth results
	// frame.
	CorruptCRCAtBatch int
	// FloodStderrAtBatch makes the child write ~1MiB of noise to stderr
	// and exit(3) instead of answering the Nth batch — the classic
	// pipe-full deadlock if the parent does not drain stderr.
	FloodStderrAtBatch int
}

func (c ChildChaos) zero() bool { return c == ChildChaos{} }

// childChunk bounds the statements per generated function: go's SSA
// passes are superlinear on single huge function bodies (the PC-set
// emission for c6288 is >100k statements), so the driver splits each
// program into chunked functions called in order.
const childChunk = 4096

// HashBench returns the hex sha256 of the circuit's canonical .bench
// rendering, skipping comments and blank lines — the same content
// identity internal/serve uses, baked into the child's handshake so a
// stale binary for a different netlist can never serve vectors.
func HashBench(c *circuit.Circuit) string {
	var buf bytes.Buffer
	if err := bench85.Write(&buf, c); err != nil {
		// Write only fails on io errors; a bytes.Buffer has none.
		return "unhashable:" + err.Error()
	}
	h := sha256.New()
	for _, line := range strings.Split(buf.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chunkProgram slices prog into childChunk-sized sub-programs named
// name_0, name_1, ... so no generated function body grows unboundedly.
func chunkProgram(name string, prog *program.Program) []ir.Source {
	var units []ir.Source
	code := prog.Code
	for i := 0; len(units) == 0 || i < len(code); i += childChunk {
		end := i + childChunk
		if end > len(code) {
			end = len(code)
		}
		units = append(units, ir.Source{
			Name: fmt.Sprintf("%s_%d", name, len(units)),
			Prog: &program.Program{
				WordBits: prog.WordBits,
				NumVars:  prog.NumVars,
				Code:     code[i:end],
				VarNames: prog.VarNames,
			},
		})
	}
	return units
}

// generateChild renders the three files of the self-contained child
// module: go.mod (no dependencies, so the build never touches the
// network), gen.go (the validated straight-line simulation code) and
// main.go (the protocol driver with the layout tables baked in).
func generateChild(cfg *Config) (map[string]string, error) {
	initUnits := chunkProgram("initvec", cfg.Init)
	simUnits := chunkProgram("simvec", cfg.Sim)
	irr, err := ir.Build(append(append([]ir.Source{}, initUnits...), simUnits...))
	if err != nil {
		return nil, err
	}
	gen, _, err := ir.Render(ir.Go, "main", irr)
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"go.mod":  "module nativechild\n\ngo 1.22\n",
		"gen.go":  gen,
		"main.go": renderDriver(cfg, len(initUnits), len(simUnits)),
	}, nil
}

// renderDriver emits the child's protocol driver. It mirrors the parent
// codec in proto.go (protoVersion pins the pair) and the in-process
// apply order: init program, then primary-input broadcast, then sim
// program — per vector.
func renderDriver(cfg *Config, initChunks, simChunks int) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("// Generated protocol driver for the udsim native backend.\n")
	w("package main\n\n")
	w("import (\n\t\"bufio\"\n\t\"encoding/binary\"\n\t\"hash/crc32\"\n\t\"io\"\n\t\"os\"\n\t\"time\"\n)\n\n")
	w("type word = uint%d\n\n", cfg.Layout.WordBits)
	w("const (\n")
	w("\tprotoVersion = %d\n", protoVersion)
	w("\twordBits     = %d\n", cfg.Layout.WordBits)
	w("\tnumVars      = %d\n", cfg.Layout.NumVars)
	w("\tnumPI        = %d\n", len(cfg.Layout.Inputs))
	w("\tnumPO        = %d\n", len(cfg.Layout.Outputs))
	w("\tcircuitHash  = %q\n", cfg.CircuitHash)
	w("\ttechnique    = %q\n\n", cfg.Technique)
	w("\tframeHello   = %d\n", frameHello)
	w("\tframeBatch   = %d\n", frameBatch)
	w("\tframeResults = %d\n", frameResults)
	w("\tframePing    = %d\n", framePing)
	w("\tframePong    = %d\n", framePong)
	w("\tframeQuit    = %d\n\n", frameQuit)
	w("\tchaosCrashAtBatch       = %d\n", cfg.Chaos.CrashAtBatch)
	w("\tchaosWedgeAfterHello    = %v\n", cfg.Chaos.WedgeAfterHandshake)
	w("\tchaosWedgeAtBatch       = %d\n", cfg.Chaos.WedgeAtBatch)
	w("\tchaosTruncateAtBatch    = %d\n", cfg.Chaos.TruncateAtBatch)
	w("\tchaosCorruptCRCAtBatch  = %d\n", cfg.Chaos.CorruptCRCAtBatch)
	w("\tchaosFloodStderrAtBatch = %d\n", cfg.Chaos.FloodStderrAtBatch)
	w(")\n\n")

	w("var inBase = %s\n", int32Slice(inputField(cfg.Layout.Inputs, func(f InputField) int32 { return f.Base })))
	w("var inWords = %s\n", int32Slice(inputField(cfg.Layout.Inputs, func(f InputField) int32 { return f.Words })))
	w("var inSplit = %s\n", int32Slice(inputField(cfg.Layout.Inputs, func(f InputField) int32 { return f.Split })))
	w("var outSlot = %s\n", int32Slice(outputField(cfg.Layout.Outputs, func(o OutputBit) int32 { return o.Slot })))
	w("var outBit = %s\n\n", int32Slice(outputField(cfg.Layout.Outputs, func(o OutputBit) int32 { return int32(o.Bit) })))

	w("func runInit(st []word) {\n")
	for i := 0; i < initChunks; i++ {
		w("\tinitvec_%d(st)\n", i)
	}
	w("}\n\n")
	w("func runSim(st []word) {\n")
	for i := 0; i < simChunks; i++ {
		w("\tsimvec_%d(st)\n", i)
	}
	w("}\n\n")

	w(`// applyInputs broadcasts the packed primary-input bits into the state
// arena exactly like the in-process engine: bits below an input's split
// offset keep the previous vector's value (delayed alignment).
func applyInputs(st []word, pi []byte, prevPI []bool) {
	const full = ^word(0)
	for i := 0; i < numPI; i++ {
		nv := pi[i>>3]>>(uint(i)&7)&1 == 1
		var newW word
		if nv {
			newW = full
		}
		base, words, split := inBase[i], inWords[i], int(inSplit[i])
		if split <= 0 {
			for w := int32(0); w < words; w++ {
				st[base+w] = newW
			}
		} else {
			var prevW word
			if prevPI[i] {
				prevW = full
			}
			for w := int32(0); w < words; w++ {
				lo := int(w) * wordBits
				switch {
				case lo+wordBits <= split:
					st[base+w] = prevW
				case lo >= split:
					st[base+w] = newW
				default:
					pm := word(1)<<uint(split-lo) - 1
					st[base+w] = prevW&pm | newW&^pm
				}
			}
		}
		prevPI[i] = nv
	}
}

func packOutputs(st []word, po []byte) {
	for i := range po {
		po[i] = 0
	}
	for i := 0; i < numPO; i++ {
		if st[outSlot[i]]>>uint(outBit[i])&1 == 1 {
			po[i>>3] |= 1 << (uint(i) & 7)
		}
	}
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, 9+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[4:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > 16<<20 {
		os.Exit(2)
	}
	body := make([]byte, 1+n+4)
	body[0] = hdr[4]
	if _, err := io.ReadFull(r, body[1:]); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(body[:1+n]) != binary.LittleEndian.Uint32(body[1+n:]) {
		os.Exit(2)
	}
	return hdr[4], body[1 : 1+n], nil
}

func helloPayload() []byte {
	p := make([]byte, 0, 64)
	for _, v := range [...]uint32{protoVersion, wordBits, numVars, numPI, numPO} {
		p = binary.LittleEndian.AppendUint32(p, v)
	}
	for _, s := range [...]string{circuitHash, technique} {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
		p = append(p, s...)
	}
	return p
}

// wedge hangs forever without tripping the runtime deadlock detector
// (a bare select{} in a single-goroutine program exits 2 with "all
// goroutines are asleep", which is a crash, not a stall).
func wedge() {
	for {
		time.Sleep(time.Hour)
	}
}

func main() {
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	st := make([]word, numVars)
	prevPI := make([]bool, numPI)
	piBytes := (numPI + 7) / 8
	poBytes := (numPO + 7) / 8
	if err := writeFrame(out, frameHello, helloPayload()); err != nil {
		os.Exit(2)
	}
	out.Flush()
	if chaosWedgeAfterHello {
		wedge()
	}
	batches := 0
	for {
		typ, payload, err := readFrame(in)
		if err == io.EOF {
			return
		}
		if err != nil {
			os.Exit(2)
		}
		switch typ {
		case framePing:
			writeFrame(out, framePong, payload)
			out.Flush()
		case frameQuit:
			return
		case frameBatch:
			batches++
			if len(payload) < 8 {
				os.Exit(2)
			}
			seq := binary.LittleEndian.Uint32(payload)
			count := int(binary.LittleEndian.Uint32(payload[4:]))
			bits := payload[8:]
			if count < 0 || len(bits) != count*piBytes {
				os.Exit(2)
			}
			if batches == chaosCrashAtBatch {
				os.Exit(7)
			}
			if batches == chaosWedgeAtBatch {
				wedge()
			}
			if batches == chaosFloodStderrAtBatch {
				noise := make([]byte, 64<<10)
				for i := range noise {
					noise[i] = 'z'
				}
				for i := 0; i < 16; i++ {
					os.Stderr.Write(noise)
				}
				os.Exit(3)
			}
			res := make([]byte, 8+count*poBytes)
			binary.LittleEndian.PutUint32(res, seq)
			binary.LittleEndian.PutUint32(res[4:], uint32(count))
			for v := 0; v < count; v++ {
				runInit(st)
				applyInputs(st, bits[v*piBytes:], prevPI)
				runSim(st)
				packOutputs(st, res[8+v*poBytes:8+(v+1)*poBytes])
			}
			frame := make([]byte, 0, 9+len(res))
			frame = binary.LittleEndian.AppendUint32(frame, uint32(len(res)))
			frame = append(frame, frameResults)
			frame = append(frame, res...)
			crc := crc32.ChecksumIEEE(frame[4:])
			if batches == chaosCorruptCRCAtBatch {
				crc = ^crc
			}
			frame = binary.LittleEndian.AppendUint32(frame, crc)
			if batches == chaosTruncateAtBatch {
				out.Write(frame[:len(frame)/2])
				out.Flush()
				os.Exit(4)
			}
			out.Write(frame)
			out.Flush()
		default:
			os.Exit(2)
		}
	}
}
`)
	return b.String()
}

func inputField(fs []InputField, get func(InputField) int32) []int32 {
	out := make([]int32, len(fs))
	for i, f := range fs {
		out[i] = get(f)
	}
	return out
}

func outputField(os []OutputBit, get func(OutputBit) int32) []int32 {
	out := make([]int32, len(os))
	for i, o := range os {
		out[i] = get(o)
	}
	return out
}

// int32Slice renders a []int32 literal.
func int32Slice(vals []int32) string {
	var b strings.Builder
	b.WriteString("[]int32{")
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("}")
	return b.String()
}
