package wal

import (
	"testing"
)

// BenchmarkAppendStrictParallel is the cross-session group-commit hot
// path: concurrent strict-durability operations, each one append
// acknowledged by its own Commit. Commits that overlap in time share one
// leader's fsync; compare ns/op and fsyncs/op here against
// BenchmarkAppendStrictSerial to see the batching win.
func BenchmarkAppendStrictParallel(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{Type: RecOCTCommit, Payload: []byte(`{"writes":[{"name":"/bench","version":1}]}`)}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(r); err != nil {
				b.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
}

// BenchmarkAppendStrictSerial is the single-appender baseline: one
// append and one Commit per op, no overlap, so every commit leads its
// own flush.
func BenchmarkAppendStrictSerial(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{Type: RecOCTCommit, Payload: []byte(`{"writes":[{"name":"/bench","version":1}]}`)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendStrictAck4 is one acknowledged operation of the shape an
// erasing rework logs: four appends (cursor, two hides, erase marker)
// made durable by a single Commit.
func BenchmarkAppendStrictAck4(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{Type: RecOCTCommit, Payload: []byte(`{"writes":[{"name":"/bench","version":1}]}`)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			if err := l.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
}

// BenchmarkAppendFrame measures the wire/log framing with a reused
// destination buffer — the pattern the server stream writer and the
// log's append path both use.
func BenchmarkAppendFrame(b *testing.B) {
	r := Record{Type: RecOCTCommit, Payload: []byte(`{"seq":42,"ref":{"name":"/chip/alu/opt","version":7}}`)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], r)
	}
	if len(buf) == 0 {
		b.Fatal("empty frame")
	}
}
