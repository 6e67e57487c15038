package primitives

import "math"

// Vectorized hashing. Hash columns combine into []uint64 buckets via
// multiply-xor mixing (a 64-bit finalizer derived from splitmix64), computed
// column-at-a-time as X100 does: first key column initializes the hash
// vector, subsequent columns combine into it.

const (
	hashSeed uint64 = 0x9e3779b97f4a7c15
	mixMul1  uint64 = 0xbf58476d1ce4e5b9
	mixMul2  uint64 = 0x94d049bb133111eb
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixMul1
	x ^= x >> 27
	x *= mixMul2
	x ^= x >> 31
	return x
}

// HashInt initializes dst with the hash of an integer column.
func HashInt[T Integer](dst []uint64, a []T, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = mix64(uint64(a[i]) + hashSeed)
		}
		return
	}
	for k, i := range sel {
		dst[k] = mix64(uint64(a[i]) + hashSeed)
	}
}

// floatKeyBits is the bit pattern a DOUBLE hashes by: -0 hashes as +0 and
// every NaN as one pattern, so values equal under types.CompareFloat64 (the
// equality of GROUP BY) hash equally.
func floatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return 0x7ff8000000000001 // math.NaN()
	}
	return math.Float64bits(f)
}

// HashFloat initializes dst with the hash of a float column.
func HashFloat(dst []uint64, a []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = mix64(floatKeyBits(a[i]) + hashSeed)
		}
		return
	}
	for k, i := range sel {
		dst[k] = mix64(floatKeyBits(a[i]) + hashSeed)
	}
}

// HashBool initializes dst with the hash of a bool column.
func HashBool(dst []uint64, a []bool, sel []int32, n int) {
	const t, f = 0x5851f42d4c957f2d, 0x14057b7ef767814f
	if sel == nil {
		for i := 0; i < n; i++ {
			if a[i] {
				dst[i] = t
			} else {
				dst[i] = f
			}
		}
		return
	}
	for k, i := range sel {
		if a[i] {
			dst[k] = t
		} else {
			dst[k] = f
		}
	}
}

// HashString initializes dst with an FNV-1a hash of a string column,
// finalized with mix64.
func HashString(dst []uint64, a []string, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = hashStr(a[i])
		}
		return
	}
	for k, i := range sel {
		dst[k] = hashStr(a[i])
	}
}

func hashStr(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// RehashInt combines an integer column into existing hashes in dst.
func RehashInt[T Integer](dst []uint64, a []T, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ (uint64(a[i]) + hashSeed))
		}
		return
	}
	for k, i := range sel {
		dst[k] = mix64(dst[k] ^ (uint64(a[i]) + hashSeed))
	}
}

// RehashFloat combines a float column into existing hashes in dst.
func RehashFloat(dst []uint64, a []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ (floatKeyBits(a[i]) + hashSeed))
		}
		return
	}
	for k, i := range sel {
		dst[k] = mix64(dst[k] ^ (floatKeyBits(a[i]) + hashSeed))
	}
}

// RehashBool combines a bool column into existing hashes in dst.
func RehashBool(dst []uint64, a []bool, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			v := uint64(0)
			if a[i] {
				v = 1
			}
			dst[i] = mix64(dst[i] ^ (v + hashSeed))
		}
		return
	}
	for k, i := range sel {
		v := uint64(0)
		if a[i] {
			v = 1
		}
		dst[k] = mix64(dst[k] ^ (v + hashSeed))
	}
}

// RehashString combines a string column into existing hashes in dst.
func RehashString(dst []uint64, a []string, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = mix64(dst[i] ^ hashStr(a[i]))
		}
		return
	}
	for k, i := range sel {
		dst[k] = mix64(dst[k] ^ hashStr(a[i]))
	}
}
