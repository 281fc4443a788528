package transport

import (
	"bytes"
	"testing"
)

// benchFrame is a routed-data frame with a 512 KiB payload — the
// shape of a halo-exchange message at production window sizes.
func benchFrame() frame {
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	return frame{typ: frameData, src: 1, dst: 2, tag: 7, payload: payload}
}

// BenchmarkFrameEncode measures appending one PTGW frame into a warm
// batch buffer — the per-frame cost of Client.send.
func BenchmarkFrameEncode(b *testing.B) {
	f := benchFrame()
	buf, err := appendFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = appendFrame(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode measures one CRC-verified frame read with a
// warm frameReader — the per-frame cost of the hub and client read
// loops.
func BenchmarkFrameDecode(b *testing.B) {
	raw, err := appendFrame(nil, benchFrame())
	if err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(raw)
	rd := frameReader{r: r}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, err := rd.read(); err != nil {
			b.Fatal(err)
		}
	}
}
