package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// inputSize reports how many bytes remain in r when that is knowable without
// consuming it: in-memory readers expose Len(), regular files expose
// Stat().Size() minus the current offset. Pipes, sockets and opaque wrappers
// report unknown, which skips the header-vs-size validation (the MaxVertices
// cap still applies).
func inputSize(r io.Reader) (int64, bool) {
	switch t := r.(type) {
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		return int64(t.Len()), true
	case *os.File:
		fi, err := t.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		pos, err := t.Seek(0, io.SeekCurrent)
		if err != nil || pos < 0 || pos > fi.Size() {
			return 0, false
		}
		return fi.Size() - pos, true
	}
	return 0, false
}

// checkDeclared rejects a header that declares more elements than the input
// can physically hold: each element occupies at least minBytes bytes of
// input, so count > size/minBytes proves the header lies before a single
// element-sized allocation happens. No-op when the input size is unknown.
func checkDeclared(count, minBytes, size int64, known bool, what string) error {
	if !known || count <= 0 {
		return nil
	}
	if count > size/minBytes {
		return fmt.Errorf("graphio: header declares %d %s but only %d bytes of input remain (truncated or hostile header)",
			count, what, size)
	}
	return nil
}

// keepReadErr, deferred by the text readers, puts the read error back in
// front of a parse error: when a read fails mid-line, bufio.Scanner still
// yields the partial last line, and the complaint about that line would
// otherwise hide the failed read.
func keepReadErr(sc *bufio.Scanner, err *error) {
	if rerr := sc.Err(); *err != nil && rerr != nil && !errors.Is(*err, rerr) {
		*err = rerr
	}
}
