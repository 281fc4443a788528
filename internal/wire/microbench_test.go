package wire

import (
	"testing"
)

func BenchmarkBulkAppend(b *testing.B) {
	src := make([]float64, 64*64*64)
	dst := AppendFloat64s(nil, src)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		dst = AppendFloat64s(dst[:0], src)
	}
}

func BenchmarkBulkDecode(b *testing.B) {
	src := make([]float64, 64*64*64)
	raw := AppendFloat64s(nil, src)
	out := make([]float64, len(src))
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		Float64s(out, raw)
	}
}

func BenchmarkCRC(b *testing.B) {
	raw := make([]byte, 64*64*64*8)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		_ = Checksum(raw)
	}
}
