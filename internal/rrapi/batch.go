package rrapi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// ErrBadBatch reports a POST /v1/reports body outside the batch grammar
// DecodeBatch accepts.
var ErrBadBatch = errors.New("rrapi: malformed batch body")

// batchHead and batchTail frame the reports of an encoded batch body.
const (
	batchHead = `{"reports":[`
	batchTail = `]}`
)

// AppendBatch appends the POST /v1/reports body carrying reports to dst and
// returns the extended slice. For any non-nil reports the bytes are exactly
// json.Marshal(BatchRequest{Reports: reports}); a nil batch encodes as an
// empty array rather than null, so DecodeBatch accepts every body
// AppendBatch writes.
func AppendBatch(dst []byte, reports []int) []byte {
	// Every report takes at least a digit and a comma.
	dst = slices.Grow(dst, len(batchHead)+2*len(reports)+len(batchTail))
	dst = append(dst, batchHead...)
	for k, r := range reports {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(r), 10)
	}
	return append(dst, batchTail...)
}

// DecodeBatch decodes a POST /v1/reports body in one pass, appending the
// reports to dst[:0] and returning the extended slice, so a caller that
// hands back the previous result decodes without allocating once the slice
// has grown to its batch size. On error the returned slice holds what was
// decoded before the error and is fit only for reuse.
//
// The grammar is the JSON the SDK writes and nothing else: one object whose
// only member is spelled exactly "reports", whose value is an array of JSON
// integers (optional minus, no leading zeros, no fraction or exponent, in
// int range), with JSON whitespace anywhere between tokens and nothing but
// whitespace after the object. Every body it accepts decodes to the same
// reports under encoding/json. encoding/json also accepts some bodies this
// grammar refuses — {}, a null array, unknown or duplicate members, other
// spellings or escapes of the key, trailing data — and DecodeBatch rejects
// them with an error wrapping ErrBadBatch. It does not range-check reports:
// that is the collector's job.
func DecodeBatch(body []byte, dst []int) ([]int, error) {
	dst = dst[:0]
	i := 0
	for _, tok := range [...]string{"{", `"reports"`, ":", "["} {
		i = skipSpace(body, i)
		if len(body)-i < len(tok) || string(body[i:i+len(tok)]) != tok {
			return dst, batchError(body, i, "want "+tok)
		}
		i += len(tok)
	}
	if i = skipSpace(body, i); i < len(body) && body[i] == ']' {
		i++
	} else {
		// The integer is scanned here rather than in a helper: this loop
		// is the whole per-report cost of an ingest body.
		for {
			i = skipSpace(body, i)
			start := i
			neg := i < len(body) && body[i] == '-'
			if neg {
				i++
			}
			first := i
			var u uint64
			for ; i < len(body); i++ {
				d := body[i] - '0' // above 9 for every non-digit: bytes below '0' wrap
				if d > 9 {
					break
				}
				u = u*10 + uint64(d) // exact up to maxIntDigits digits
			}
			n := i - first
			if n == 0 {
				return dst, batchError(body, first, "want an integer")
			}
			if n > 1 && body[first] == '0' {
				return dst, batchError(body, start, "integer with a leading zero")
			}
			limit := uint64(math.MaxInt) // the largest magnitude of a positive int
			if neg {
				limit++
			}
			if n > maxIntDigits || u > limit {
				return dst, batchError(body, start, "integer overflows int")
			}
			v := int(u)
			if neg {
				v = -v // wraps to math.MinInt when u is MaxInt+1, as wanted
			}
			dst = append(dst, v)
			// A fraction or exponent fails here too: '.', 'e' and 'E' are
			// neither separator.
			if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
				i++
				continue
			}
			if i < len(body) && body[i] == ']' {
				i++
				break
			}
			return dst, batchError(body, i, "want , or ] after an integer")
		}
	}
	if i = skipSpace(body, i); i >= len(body) || body[i] != '}' {
		return dst, batchError(body, i, "want } closing the only member")
	}
	if i = skipSpace(body, i+1); i != len(body) {
		return dst, batchError(body, i, "want end of body")
	}
	return dst, nil
}

// maxIntDigits is the most decimal digits an int can need: 19 for 64 bits.
// A uint64 holds every 19-digit number, so up to this many digits the
// accumulated magnitude is exact and comparing it with the sign's limit
// decides overflow.
const maxIntDigits = 19

// skipSpace returns the index of the first non-whitespace byte at or after
// i. Every JSON whitespace byte is at most ' ', so the first comparison
// settles every other byte.
func skipSpace(body []byte, i int) int {
	for i < len(body) && body[i] <= ' ' && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	return i
}

// batchError describes where and why a body left the grammar.
func batchError(body []byte, i int, want string) error {
	if i >= len(body) {
		return fmt.Errorf("%w: %s at end of body (offset %d)", ErrBadBatch, want, i)
	}
	return fmt.Errorf("%w: %s at offset %d (found %q)", ErrBadBatch, want, i, body[i])
}
