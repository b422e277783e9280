package platform

import (
	"bytes"
	"testing"
)

// FuzzRead feeds arbitrary bytes to Read, the parser every service
// request body and platform file goes through. Read must never panic,
// and a platform it accepts must re-encode to a document that reads
// back to the same fingerprint.
func FuzzRead(f *testing.F) {
	g := MustGenerator(3, 1, 9, Bimodal)
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteChain(b, g.Chain(3)) },
		func(b *bytes.Buffer) error { return WriteSpider(b, g.Spider(3, 2)) },
		func(b *bytes.Buffer) error { return WriteFork(b, g.Fork(4)) },
		func(b *bytes.Buffer) error { return WriteTree(b, g.Tree(2, 2)) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"spider","spider":{"legs":[]}}`))
	f.Add([]byte(`{"kind":"chain","chain":{"nodes":[{"c":-1,"w":2}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		switch dec.Kind {
		case "chain":
			err = WriteChain(&buf, *dec.Chain)
		case "spider":
			err = WriteSpider(&buf, *dec.Spider)
		case "fork":
			err = WriteFork(&buf, *dec.Fork)
		case "tree":
			err = WriteTree(&buf, *dec.Tree)
		default:
			t.Fatalf("Read accepted unknown kind %q", dec.Kind)
		}
		if err != nil {
			t.Fatalf("re-encoding the accepted %s: %v", dec.Kind, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded %s rejected: %v", dec.Kind, err)
		}
		if back.Hash() != dec.Hash() {
			t.Fatalf("%s fingerprint changed across re-encoding: %v then %v", dec.Kind, dec.Hash(), back.Hash())
		}
	})
}
