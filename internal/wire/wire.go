// Package wire implements the compact binary transport encoding used to
// move round histories and update vectors between dispatch workers, the
// coordinator and the serving layer.
//
// Design:
//
//   - Every message is an envelope: 4-byte magic "FWR1", a kind byte, then
//     the payload. Unknown magic or kind fails decoding loudly. The
//     worker→coordinator hop speaks only this (wire.ContentType, anything
//     else is a 415); the public run API negotiates it against JSON.
//
//   - Float64 series (accuracy, loss, per-class accuracy, metric values)
//     are XOR-delta encoded: each value's IEEE-754 bits are XORed with the
//     previous value in its column and the difference is written as a
//     uvarint after folding out trailing zero nibbles. Slowly-moving series
//     (the common case round over round) collapse to one or two bytes per
//     value, and the roundtrip is bit-for-bit lossless — histories decoded
//     at the store boundary are byte-identical to what the worker computed,
//     so content addresses and stored artifacts are unchanged by the
//     transport.
//
//   - Integer series (round numbers, staleness histograms) are zigzag
//     varint deltas against the previous row.
//
//   - Update vectors can additionally be quantized (see quant.go): float16
//     with relative error ≤ 2⁻¹¹, or int8 with a per-block-of-64 absmax
//     scale and absolute error ≤ scale/2. Quantized forms are only used
//     for monitoring-path payloads (heartbeat progress relays), never for
//     results that reach the store.
//
// See DESIGN.md "Kernels & wire format" and docs/API.md for the protocol
// surface.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ContentType is the MIME type negotiating this encoding over HTTP.
const ContentType = "application/x-fedwcm-wire"

var magic = [4]byte{'F', 'W', 'R', '1'}

// Message kinds (the byte after the magic).
const (
	kindResult    byte = 1 // worker result upload: history + error string
	kindStats     byte = 2 // heartbeat progress relay: a batch of RoundStats
	kindRunStatus byte = 3 // serve run status: id/status/progress/history
)

var errTruncated = errors.New("wire: truncated message")

// enc accumulates an encoded message.
type enc struct{ b []byte }

func (e *enc) u(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) z(v int64)    { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte1(v byte) { e.b = append(e.b, v) }

func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// fcol is the per-column state of a float series: the previous value's bits
// (for XOR and repeat detection) and the last rational numerator and
// denominator. The engine's accuracy columns divide a slowly-moving correct
// count by a fixed test-set size, so the denominator is paid once per
// column and the numerator as a small delta per value.
type fcol struct {
	bits, den uint64
	num       int64
}

// fx writes one float64 of a column. Four lossless encodings, cheapest
// wins:
//
//   - code 0: bits unchanged from the column's previous value (1 byte);
//   - code 1: rational — zigzag numerator and uvarint denominator follow,
//     used when float64(num)/float64(den) reproduces v bit-exactly (the
//     engine's accuracy columns are correct/total quotients, so this
//     collapses them to 3–5 bytes where a raw mantissa needs 9);
//   - code 2: rational reusing the column's previous denominator, with the
//     numerator zigzag-delta'd against the column's previous numerator (the
//     steady state for accuracy columns: 2 bytes per value);
//   - otherwise XOR vs the previous bits with trailing zero nibbles folded:
//     uvarint (xor>>4f)<<4 | f for the largest f ≤ 14 with 4f trailing zero
//     bits, or escape code 15 followed by 8 raw little-endian bytes when the
//     top nibble is occupied and nothing folds.
func (e *enc) fx(c *fcol, v float64) {
	b := math.Float64bits(v)
	x := b ^ c.bits
	c.bits = b
	if x == 0 {
		e.u(0)
		return
	}
	f := uint64(bits.TrailingZeros64(x)) / 4
	if f > 14 {
		f = 14
	}
	escape := uint64(bits.LeadingZeros64(x))+4*f < 4
	xorCost := 9
	if !escape {
		xorCost = uvlen((x >> (4 * f)) << 4)
	}
	if xorCost > 2 {
		// The column's sticky denominator first: IEEE division is correctly
		// rounded, so k/200 matches even when the reduced form would be 9/20.
		if num, ok := ratWithDen(v, c.den); ok {
			dn := num - c.num
			zd := uint64(dn<<1) ^ uint64(dn>>63)
			if 1+uvlen(zd) < xorCost {
				e.u(2)
				e.z(dn)
				c.num = num
				return
			}
		}
		if num, den, ok := ratApprox(v); ok {
			zn := uint64(num<<1) ^ uint64(num>>63)
			if 1+uvlen(zn)+uvlen(den) < xorCost {
				e.u(1)
				e.z(num)
				e.u(den)
				c.den, c.num = den, num
				return
			}
		}
	}
	if escape {
		e.u(15)
		e.b = binary.LittleEndian.AppendUint64(e.b, x)
		return
	}
	e.u((x>>(4*f))<<4 | f)
}

// uvlen is the encoded size of a uvarint.
func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ratWithDen checks whether v is exactly num/den for the given denominator
// and some |num| ≤ 2²⁰.
func ratWithDen(v float64, den uint64) (int64, bool) {
	if den == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	n := math.Round(v * float64(den))
	if math.Abs(n) > 1<<20 || n == 0 {
		return 0, false
	}
	num := int64(n)
	if float64(num)/float64(den) != v {
		return 0, false
	}
	return num, true
}

// ratApprox finds a small rational num/den (den ≤ 4096, |num| ≤ 2²⁰) whose
// float64 quotient is bit-identical to v, walking the continued-fraction
// convergents of |v|. Any rational that rounds to v within the den bound is
// a convergent (|v−p/q| ≤ ulp/2 < 1/(2q²) for these magnitudes), so the
// walk is exhaustive.
func ratApprox(v float64) (num int64, den uint64, ok bool) {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, 0, false
	}
	av := math.Abs(v)
	if av > 1<<20 || av < 1.0/(2<<12) {
		return 0, 0, false
	}
	var p0, q0, p1, q1 uint64 = 0, 1, 1, 0
	x := av
	for i := 0; i < 48; i++ {
		a := math.Floor(x)
		if a > 1<<20 {
			return 0, 0, false
		}
		p2 := uint64(a)*p1 + p0
		q2 := uint64(a)*q1 + q0
		if q2 > 4096 || p2 > 1<<20 {
			return 0, 0, false
		}
		if float64(p2)/float64(q2) == av {
			num = int64(p2)
			if v < 0 {
				num = -num
			}
			return num, q2, true
		}
		p0, q0, p1, q1 = p1, q1, p2, q2
		frac := x - a
		if frac == 0 {
			return 0, 0, false
		}
		x = 1 / frac
	}
	return 0, 0, false
}

// dec consumes an encoded message; errors are sticky and reads after an
// error return zero values.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) z() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte1() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail(errTruncated)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.u()
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return ""
	}
	return string(d.take(int(n)))
}

// length reads a count that is subsequently used to allocate; it is bounded
// by the remaining input so corrupt messages cannot demand huge buffers.
func (d *dec) length() int {
	n := d.u()
	if n > uint64(len(d.b))+1 {
		d.fail(fmt.Errorf("wire: length %d exceeds remaining input %d", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *dec) fx(c *fcol) float64 {
	u := d.u()
	var x uint64
	switch {
	case u == 0:
		// unchanged
	case u == 1 || u == 2:
		var num int64
		den := c.den
		if u == 1 {
			num = d.z()
			den = d.u()
		} else {
			num = c.num + d.z()
		}
		if den == 0 {
			d.fail(errors.New("wire: rational with zero denominator"))
			return 0
		}
		c.den, c.num = den, num
		v := float64(num) / float64(den)
		c.bits = math.Float64bits(v)
		return v
	case u == 15:
		raw := d.take(8)
		if d.err == nil {
			x = binary.LittleEndian.Uint64(raw)
		}
	case u < 15:
		d.fail(fmt.Errorf("wire: reserved float delta code %d", u))
	default:
		f := u & 15
		if f > 14 {
			d.fail(fmt.Errorf("wire: invalid float fold %d", f))
			return 0
		}
		x = (u >> 4) << (4 * f)
	}
	c.bits ^= x
	return math.Float64frombits(c.bits)
}

// envelope writes the message header.
func (e *enc) envelope(kind byte) {
	e.b = append(e.b, magic[:]...)
	e.byte1(kind)
}

// openEnvelope validates the header and returns the payload decoder.
func openEnvelope(p []byte, wantKind byte) (*dec, error) {
	if len(p) < 5 {
		return nil, errTruncated
	}
	if [4]byte(p[:4]) != magic {
		return nil, fmt.Errorf("wire: bad magic %q", p[:4])
	}
	if p[4] != wantKind {
		return nil, fmt.Errorf("wire: kind %d, want %d", p[4], wantKind)
	}
	return &dec{b: p[5:]}, nil
}
