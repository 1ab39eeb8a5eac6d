// Package native runs a circuit's validated codegen output as a
// supervised out-of-process subprocess — the paper's "genuinely
// straight-line native code" backend, wrapped in the PR-5 resilience
// ladder.
//
// The generated Go (the same emission rule V016 certifies) is
// written to a temp-dir module, `go build`-ed out of process, and the
// resulting child speaks a length-prefixed, CRC-checked vector protocol
// over its stdin/stdout: a handshake frame carrying the protocol
// version, circuit hash and technique, then batches of packed
// primary-input bits in and packed primary-output bits out. A
// Supervisor owns the child's full lifecycle — build/handshake
// deadlines, per-batch deadlines from resilience.Policy, capped
// exponential-backoff respawn on crash/EOF/protocol violation, and
// after MaxRetries a quarantine that makes the caller fall back to the
// in-process engine permanently. Every failure is a typed
// *resilience.EngineFault with frame coordinates, exit status and a
// stderr tail as witnesses — never a hang, never a wrong bit.
package native

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format, least significant byte first:
//
//	u32 payload length | u8 frame type | payload | u32 CRC-32 (IEEE)
//
// The CRC covers the type byte and the payload. The same layout is
// baked into the generated child driver (gen.go); protoVersion guards
// the two implementations against drifting apart.
const (
	// protoVersion is the wire-protocol version the handshake pins.
	protoVersion = 1
	// maxPayload bounds a frame's payload; anything larger is a
	// protocol violation (a desynced or hostile child), not a read.
	maxPayload = 16 << 20

	frameHello   = 1 // child→parent: version/handshake
	frameBatch   = 2 // parent→child: seq, count, packed PI bits
	frameResults = 3 // child→parent: seq, count, packed PO bits
	framePing    = 4 // parent→child: liveness probe (u32 nonce)
	framePong    = 5 // child→parent: ping echo
	frameQuit    = 6 // parent→child: clean shutdown request
)

// Protocol violation sentinels; the supervisor wraps them in
// FaultProtocol faults with the frame coordinate.
var (
	errCRC       = errors.New("native: frame crc mismatch")
	errOversized = errors.New("native: frame payload exceeds limit")
	errTruncated = errors.New("native: truncated frame")
)

// appendFrame appends one encoded frame to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, typ)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[len(dst)-len(payload)-1:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// readFrame reads one frame. An EOF before the first header byte is
// returned as io.EOF (the child closed its stream at a frame
// boundary); an EOF anywhere inside a frame is errTruncated.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, truncated(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w (%d bytes)", errOversized, n)
	}
	typ = hdr[4]
	body := make([]byte, 1+n+4)
	body[0] = typ
	if _, err := io.ReadFull(r, body[1:]); err != nil {
		return 0, nil, truncated(err)
	}
	want := binary.LittleEndian.Uint32(body[1+n:])
	if crc32.ChecksumIEEE(body[:1+n]) != want {
		return 0, nil, errCRC
	}
	return typ, body[1 : 1+n], nil
}

// truncated maps a mid-frame EOF to the protocol sentinel and leaves
// every other error (deadlines in particular) alone.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTruncated
	}
	return err
}

// hello is the decoded handshake frame.
type hello struct {
	Version   uint32
	WordBits  uint32
	NumVars   uint32
	NumPI     uint32
	NumPO     uint32
	Hash      string
	Technique string
}

// parseHello decodes a hello payload.
func parseHello(p []byte) (h hello, err error) {
	if len(p) < 5*4 {
		return h, errTruncated
	}
	h.Version = binary.LittleEndian.Uint32(p)
	h.WordBits = binary.LittleEndian.Uint32(p[4:])
	h.NumVars = binary.LittleEndian.Uint32(p[8:])
	h.NumPI = binary.LittleEndian.Uint32(p[12:])
	h.NumPO = binary.LittleEndian.Uint32(p[16:])
	rest := p[20:]
	h.Hash, rest, err = parseString(rest)
	if err != nil {
		return h, err
	}
	h.Technique, rest, err = parseString(rest)
	if err != nil {
		return h, err
	}
	if len(rest) != 0 {
		return h, fmt.Errorf("native: %d trailing handshake bytes", len(rest))
	}
	return h, nil
}

func parseString(p []byte) (string, []byte, error) {
	if len(p) < 4 {
		return "", nil, errTruncated
	}
	n := binary.LittleEndian.Uint32(p)
	if uint32(len(p)-4) < n {
		return "", nil, errTruncated
	}
	return string(p[4 : 4+n]), p[4+n:], nil
}

// packBits packs a bool vector into bytes, bit i at byte i/8 bit i%8.
func packBits(dst []byte, vec []bool) []byte {
	n := (len(vec) + 7) / 8
	for len(dst) < n {
		dst = append(dst, 0)
	}
	for i := range dst[:n] {
		dst[i] = 0
	}
	for i, b := range vec {
		if b {
			dst[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return dst[:n]
}

// Bit reads bit i of a packed vector.
func Bit(packed []byte, i int) bool {
	return packed[i>>3]>>(uint(i)&7)&1 == 1
}
