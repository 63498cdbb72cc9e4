package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	"fdiam/internal/gen"
)

// seal wraps a payload in the on-disk envelope Write produces: magic,
// payload, CRC-32 of the payload.
func seal(payload []byte) []byte {
	out := append([]byte(magic), payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// FuzzCheckpointParse feeds arbitrary bytes to the snapshot decoder boot
// recovery runs on files found on disk. Each input is tried as-is and,
// because a random mutation almost never survives the CRC, once more with
// its CRC recomputed so the fuzzer reaches the payload decoder. For every
// attempt: parse never panics and allocates at most a constant factor of
// its input; an accepted snapshot re-encodes and re-parses to an equal
// snapshot; and Validate of an accepted snapshot against a small graph
// never panics.
func FuzzCheckpointParse(f *testing.F) {
	g := gen.Path(16)
	hash := GraphHash(g)

	file := seal(testSnapshot(g).encode())
	empty := seal((&Snapshot{WitnessA: math.MaxUint32, WitnessB: math.MaxUint32, UbCap: -1}).encode())
	for _, seed := range [][]byte{file, empty} {
		f.Add(seed)
		for _, cut := range []int{len(seed) - 1, len(seed) / 2, len(magic) + 4, 3} {
			f.Add(append([]byte(nil), seed[:cut]...))
		}
		for _, i := range []int{len(magic), len(magic) + 40, len(seed) / 2, len(seed) - 5} {
			flipped := append([]byte(nil), seed...)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		attempts := [][]byte{data}
		if len(data) >= len(magic)+4 {
			resealed := seal(data[len(magic) : len(data)-4])
			copy(resealed, data[:len(magic)])
			attempts = append(attempts, resealed)
		}
		for _, in := range attempts {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := parse(in)
			runtime.ReadMemStats(&after)
			// decode bounds every declared length by the bytes remaining, so
			// each collection costs a constant factor of its encoding (a
			// ChainRing entry, a map key plus a slice header per 12 encoded
			// bytes, is the costliest). The slack covers the fixed-size
			// Snapshot and error values.
			if got, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(in))+16<<10; got > limit {
				t.Fatalf("parse of %d bytes allocated %d bytes (limit %d)", len(in), got, limit)
			}
			if err != nil {
				continue
			}
			again, err := parse(seal(s.encode()))
			if err != nil {
				t.Fatalf("re-parse of an accepted snapshot failed: %v", err)
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", again, s)
			}
			s.GraphHash = hash
			_ = s.Validate(g) // any verdict is fine; panicking is not
		}
	})
}
