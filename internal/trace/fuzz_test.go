package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadLogs checks the trace container reader never panics on corrupt
// input and that any stream it accepts round-trips: decode → encode →
// decode must reproduce the logs exactly, or replaying an archived trace
// would silently simulate a different access stream.
func FuzzReadLogs(f *testing.F) {
	// A real two-thread log as the structured seed.
	valid := ThreadLog{Thread: 0, Accesses: []Access{
		{Addr: 0x200000, Kind: KindOffsets, Vertex: 0, Dest: 0},
		{Addr: 0x400004, Kind: KindEdges, Vertex: 1, Dest: 0},
		{Addr: 0x600008, Kind: KindVertexRead, Vertex: 1, Dest: 0, Write: false},
		{Addr: 0x800008, Kind: KindVertexWrite, Vertex: 0, Dest: 0, Write: true},
	}}
	var buf bytes.Buffer
	if err := WriteLogs([]ThreadLog{valid, {Thread: 1}}, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-7]) // truncated mid-record
	f.Add([]byte("GLAS"))                   // magic only
	f.Add([]byte("BAD!"))                   // wrong magic
	f.Add([]byte{})                         // empty

	f.Fuzz(func(t *testing.T, data []byte) {
		logs, err := ReadLogs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteLogs(logs, &out); err != nil {
			t.Fatalf("re-serializing accepted logs: %v", err)
		}
		again, err := ReadLogs(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading serialized logs: %v", err)
		}
		if !reflect.DeepEqual(logs, again) {
			t.Fatalf("round trip changed logs:\nfirst:  %+v\nsecond: %+v", logs, again)
		}
	})
}
