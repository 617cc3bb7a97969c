package netsim

import (
	"bytes"
	"strings"
	"testing"
)

// TestLine pins the line framer at its cap: a line ends at the first '\n'
// and may take MaxLine bytes with it; without a '\n' it asks for one more
// byte until MaxLine bytes are in, which is an error.
func TestLine(t *testing.T) {
	long := bytes.Repeat([]byte{'a'}, MaxLine-1)
	for _, c := range []struct {
		name string
		raw  []byte
		line string
		n    int
		err  error
	}{
		{"empty", nil, "", 1, nil},
		{"no newline yet", []byte("USER x"), "", 7, nil},
		{"empty line", []byte("\nrest"), "", 1, nil},
		{"CR kept", []byte("PASS y\r\nQUIT\r\n"), "PASS y\r", 8, nil},
		{"one short of the cap", long, "", MaxLine, nil},
		{"at the cap with its newline", append(long, '\n', 'b'), string(long), MaxLine, nil},
		{"at the cap without one", append(long, 'a', '\n'), "", 0, ErrLineTooLong},
	} {
		line, n, err := Line(c.raw)
		if string(line) != c.line || n != c.n || err != c.err {
			t.Errorf("%s: %.20q, %d, %v; want %.20q, %d, %v", c.name, line, n, err, c.line, c.n, c.err)
		}
	}
}

// TestReadFramedLine: the blocking reader over Line takes one line and not
// a byte of the next.
func TestReadFramedLine(t *testing.T) {
	r := strings.NewReader("220 ready\r\n331 next")
	line, err := ReadFramed(r, Line)
	if err != nil || string(line) != "220 ready\r" || r.Len() != len("331 next") {
		t.Fatalf("line %q, %v, %d bytes left", line, err, r.Len())
	}
}
