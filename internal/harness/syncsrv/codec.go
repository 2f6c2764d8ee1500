package syncsrv

import (
	"fmt"
	"math"
	"strconv"

	"countnet/internal/counter"
)

// The reply codec. Every reply body is one JSON object on one line:
//
//	{"workers":K}
//	{"generation":G}
//	{"stride":w,"runs":[[start,n],...]}
//
// The server appends it with strconv.AppendInt and the client scans
// it byte by byte, with no reflection and no allocation per number.

// maxReply caps the bytes the client reads from one reply: a little
// over MaxDraw runs of two 19-digit numbers, so no well-formed /draw
// reply comes near it and no server can make a worker allocate more.
const maxReply = (MaxDraw + 1) * len(`[9223372036854775807,9223372036854775807],`)

// Keys of the reply objects. scanner.object hands a value callback
// the index of its key in these lists.
var (
	drawKeys       = []string{"stride", "runs"}
	workersKeys    = []string{"workers"}
	generationKeys = []string{"generation"}
)

// appendField appends the one-field reply {"key":v}.
func appendField(b []byte, key string, v int64) []byte {
	b = append(b, `{"`...)
	b = append(b, key...)
	b = append(b, `":`...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, "}\n"...)
}

// appendDraw appends the /draw reply for runs of the given stride.
func appendDraw(b []byte, stride int64, runs []counter.Run) []byte {
	b = append(b, `{"stride":`...)
	b = strconv.AppendInt(b, stride, 10)
	b = append(b, `,"runs":[`...)
	for i, r := range runs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, r.Start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r.N, 10)
		b = append(b, ']')
	}
	return append(b, "]}\n"...)
}

// scanDraw decodes a /draw body, scanning its runs into runs[:0].
func scanDraw(body []byte, runs []counter.Run) (lease, error) {
	s := scanner{b: body}
	l := lease{runs: runs[:0]}
	s.object(drawKeys, func(key int) {
		if key == 0 {
			l.stride = s.int()
		} else {
			l.runs = s.runs(l.runs)
		}
	})
	return l, s.err
}

// scanField decodes a one-field reply {"key":v}.
func scanField(body []byte, keys []string) (int64, error) {
	s := scanner{b: body}
	var v int64
	s.object(keys, func(int) { v = s.int() })
	return v, s.err
}

// scanner decodes one reply body left to right. It accepts JSON
// whitespace and the object's keys in any order, and reads a missing
// key as zero. It rejects unknown, repeated or escaped keys, numbers
// that are not canonical int64 integers (fractions, exponents, leading
// zeros, overflow), a runs array of more than MaxDraw runs, and any
// byte after the object. The first failure sticks in err, and every
// later step is a no-op.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("syncsrv: malformed reply: %s at byte %d: %.40q", what, s.i, s.b[s.i:])
	}
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.err == nil && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) want(c byte) {
	if !s.eat(c) {
		s.fail("want " + strconv.QuoteRune(rune(c)))
	}
}

// object scans one object whose keys are drawn from keys, calling value
// with the key's index to scan each value, and then the end of the body.
func (s *scanner) object(keys []string, value func(key int)) {
	var seen uint64
	s.want('{')
	if !s.eat('}') {
		for s.err == nil {
			k := s.key(keys)
			if s.err != nil {
				return
			}
			if seen&(1<<k) != 0 {
				s.fail("repeated key")
				return
			}
			seen |= 1 << k
			s.want(':')
			value(k)
			if s.eat('}') {
				break
			}
			s.want(',')
		}
	}
	s.space()
	if s.i != len(s.b) {
		s.fail("trailing bytes")
	}
}

// key scans a quoted key and returns its index in keys.
func (s *scanner) key(keys []string) int {
	s.want('"')
	start := s.i
	for s.err == nil && s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' || s.b[s.i] < ' ' {
			s.fail("escaped or control byte in key")
		}
		s.i++
	}
	if s.err != nil {
		return 0
	}
	name := s.b[start:s.i]
	s.want('"')
	for k, key := range keys {
		if string(name) == key {
			return k
		}
	}
	s.i = start
	s.fail("unknown key")
	return 0
}

// int scans one integer that fits in an int64.
func (s *scanner) int() int64 {
	s.space()
	if s.err != nil {
		return 0
	}
	limit := uint64(math.MaxInt64)
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
		limit++ // -2^63 fits, 2^63 does not
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if u > (limit-d)/10 {
			s.fail("number out of int64 range")
			return 0
		}
		u = u*10 + d
	}
	switch {
	case s.i == start:
		s.fail("want an integer")
	case s.b[start] == '0' && s.i-start > 1:
		s.fail("leading zero")
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		s.fail("non-integer number")
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// runs scans a [[start,n],...] array, appending to runs and holding at
// most MaxDraw+1 of them.
func (s *scanner) runs(runs []counter.Run) []counter.Run {
	s.want('[')
	if s.eat(']') {
		return runs
	}
	for s.err == nil {
		s.want('[')
		start := s.int()
		s.want(',')
		n := s.int()
		s.want(']')
		if s.err != nil {
			break
		}
		if runs = append(runs, counter.Run{Start: start, N: n}); len(runs) > MaxDraw {
			s.err = fmt.Errorf("syncsrv: draw reply with at least %d runs (max %d)", len(runs), MaxDraw)
			break
		}
		if s.eat(']') {
			break
		}
		s.want(',')
	}
	return runs
}
