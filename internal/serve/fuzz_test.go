package serve

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// frameResponses splits processBuffer's output into its responses, each a
// status line, header fields and the Content-Length body appendResponse
// framed, and returns their status lines. It fails the test on output that
// does not frame.
func frameResponses(t *testing.T, out []byte) []string {
	t.Helper()
	var status []string
	for len(out) > 0 {
		if !bytes.HasPrefix(out, []byte("HTTP/1.1 ")) {
			t.Fatalf("response %d does not start with a status line: %q", len(status), out)
		}
		head, rest, ok := bytes.Cut(out, crlf2)
		if !ok {
			t.Fatalf("response %d has no end of header: %q", len(status), out)
		}
		line, fields, _ := bytes.Cut(head, []byte("\r\n"))
		length := 0
		for _, f := range strings.Split(string(fields), "\r\n") {
			if v, ok := strings.CutPrefix(f, "Content-Length: "); ok {
				n, err := strconv.Atoi(v)
				if err != nil || n > len(rest) {
					t.Fatalf("response %d: bad Content-Length %q for %d bytes left", len(status), v, len(rest))
				}
				length = n
			}
		}
		status = append(status, string(line))
		out = rest[length:]
	}
	return status
}

// bodyRequest is a control request announcing a body through field (a
// Content-Length or Transfer-Encoding spelled in the case mask's letter
// cases), the lines before it ended by eol, followed by the body and a
// pipelined admission: the admission must not be read out of the body.
func bodyRequest(eol, field string, mask uint64) []byte {
	b := []byte(field)
	for i, c := range b {
		if mask&(1<<(i%64)) != 0 {
			if 'a' <= c && c <= 'z' {
				b[i] = c - 'a' + 'A'
			} else if 'A' <= c && c <= 'Z' {
				b[i] = c - 'A' + 'a'
			}
		}
	}
	return []byte("POST /policy/reload HTTP/1.1" + eol + "Host: x" + eol + string(b) + "\r\n\r\nabcGET /req HTTP/1.1\r\n\r\n")
}

// TestControlRefusesBodyInAnyCase: a control request whose header announces
// a body is refused and the connection closed whatever the field name's
// case, so a pipelined admission behind the body is never parsed out of it.
// A Content-Length of 0 is no body and is served.
func TestControlRefusesBodyInAnyCase(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Method: "fixed:1.8", Seed: 1})
	for _, c := range []struct {
		field  string
		status string
	}{
		{"Content-Length: 3", "HTTP/1.1 411 Length Required"},
		{"content-length: 3", "HTTP/1.1 411 Length Required"},
		{"CONTENT-LENGTH:3", "HTTP/1.1 411 Length Required"},
		{"Content-Length : 3", "HTTP/1.1 411 Length Required"},
		{"Transfer-Encoding: chunked", "HTTP/1.1 501 Not Implemented"},
		{"transfer-encoding: chunked", "HTTP/1.1 501 Not Implemented"},
	} {
		var out []byte
		consumed, admitted, responded, closing := d.processBuffer(bodyRequest("\r\n", c.field, 0), &out, 0)
		got := frameResponses(t, out)
		if !closing || admitted != 0 || responded != 1 || len(got) != 1 || got[0] != c.status {
			t.Errorf("%q: consumed %d, admitted %d, responded %d, closing %v, responses %q; want one %q and a close",
				c.field, consumed, admitted, responded, closing, got, c.status)
		}
	}
	// The request line ends in a bare LF, so a parser splitting fields only
	// on CRLF would read the field as part of the request line.
	var out []byte
	in := []byte("POST /policy/reload HTTP/1.1\ncontent-length: 3\r\n\r\nabcGET /req HTTP/1.1\r\n\r\n")
	_, admitted, _, closing := d.processBuffer(in, &out, 0)
	if got := frameResponses(t, out); !closing || admitted != 0 || len(got) != 1 || got[0] != "HTTP/1.1 411 Length Required" {
		t.Errorf("bare LF: admitted %d, closing %v, responses %q; want one 411 and a close", admitted, closing, got)
	}
	out = out[:0]
	in = []byte("GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\nGET /req HTTP/1.1\r\n\r\n")
	if _, admitted, _, closing = d.processBuffer(in, &out, 0); closing || admitted != 1 {
		t.Errorf("Content-Length 0: admitted %d, closing %v; want the admission served: %q", admitted, closing, out)
	}
}

// TestConnectionCloseInAnyCase: a Connection field asks for a close when
// its options include the close token, whatever the case of the name or the
// token and whether the line before it ends in CRLF or a bare LF; the
// requests behind it on the connection are left unread. Other options, or a
// token that only starts with "close", keep the connection open.
func TestConnectionCloseInAnyCase(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Method: "fixed:1.8", Seed: 1})
	for _, c := range []struct {
		eol, field string
		closing    bool
	}{
		{"\r\n", "Connection: close", true},
		{"\r\n", "connection: close", true},
		{"\r\n", "CONNECTION: CLOSE", true},
		{"\r\n", "Connection:close", true},
		{"\r\n", "Connection : Close ", true},
		{"\r\n", " \tconnection: close", true},
		{"\r\n", "Connection: keep-alive, close", true},
		{"\r\n", "connection: Upgrade,close,foo", true},
		{"\n", "connection: close", true},
		{"\n", "Connection: close", true},
		{"\r\n", "Connection: closed", false},
		{"\r\n", "Connection: keep-alive", false},
		{"\r\n", "X-Connection: close", false},
		{"\r\n", "Proxy-Connection: close", false},
		{"\r\n", "X-Note: connection: close", false},
	} {
		for _, path := range []string{"/req", "/healthz"} {
			in := []byte("GET " + path + " HTTP/1.1" + c.eol + "Host: x" + c.eol + c.field + "\r\n\r\nGET /req HTTP/1.1\r\n\r\n")
			var out []byte
			_, _, responded, closing := d.processBuffer(in, &out, 0)
			want := 2
			if c.closing {
				want = 1
			}
			if closing != c.closing || responded != want {
				t.Errorf("GET %s, %q after %q: closing %v, %d responses; want closing %v, %d",
					path, c.field, c.eol, closing, responded, c.closing, want)
			}
		}
	}
}

// FuzzProcessBuffer checks the daemon's hand-rolled framing on arbitrary
// read buffers:
//
//   - it never panics;
//   - consumed is 0 or ends on \r\n\r\n;
//   - responded equals the number of responses appended, which frame by
//     their Content-Length, and admitted ≤ responded;
//   - splitting the input at a fuzz-chosen point and carrying the
//     unconsumed tail into the next call, as serveConn does, gives the same
//     counts and status lines as one call, up to the first close;
//   - a control request announcing a body is refused in any header case,
//     whether its request line ends in CRLF or a bare LF.
//
// The split check compares what the framing decides, not response bodies:
// /stats reports live telemetry (uptime, the control-request count), which
// differs between the two calls. Every status is a function of the request
// alone, because this daemon's policy is not registry-backed, so each
// lifecycle route answers 409.
//
// The seed corpus is under testdata/fuzz/FuzzProcessBuffer. Control routes
// run on the bridge, so the daemon is started: on an unstarted one,
// Bridge.Do would block.
func FuzzProcessBuffer(f *testing.F) {
	d, err := NewDaemon(DaemonConfig{Method: "fixed:1.8", Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Start(); err != nil {
		f.Fatal(err)
	}
	defer d.Stop()
	f.Fuzz(func(t *testing.T, in []byte, cut uint16, mask uint64) {
		var whole []byte
		consumed, admitted, responded, closing := d.processBuffer(in, &whole, 0)
		if consumed != 0 && !bytes.HasSuffix(in[:consumed], crlf2) {
			t.Fatalf("consumed %d bytes, not ending on a terminator: %q", consumed, in[:consumed])
		}
		status := frameResponses(t, whole)
		if len(status) != responded || admitted > responded {
			t.Fatalf("admitted %d, responded %d, %d responses framed", admitted, responded, len(status))
		}

		// The same bytes in two reads, the first one's unconsumed tail
		// carried into the second.
		k := int(cut) % (len(in) + 1)
		var split []byte
		c1, a1, r1, closing1 := d.processBuffer(in[:k], &split, 0)
		c2, a2, r2, closing2 := 0, 0, 0, false
		if !closing1 {
			c2, a2, r2, closing2 = d.processBuffer(in[c1:], &split, 0)
		}
		splitStatus := frameResponses(t, split)
		if !slices.Equal(splitStatus, status) || c1+c2 != consumed || a1+a2 != admitted || r1+r2 != responded || (closing1 || closing2) != closing {
			t.Fatalf("split at %d: consumed %d+%d, admitted %d+%d, responded %d+%d, closing %v/%v, %q; one call: %d, %d, %d, %v, %q",
				k, c1, c2, a1, a2, r1, r2, closing1, closing2, splitStatus, consumed, admitted, responded, closing, status)
		}

		for _, eol := range []string{"\r\n", "\n"} {
			for _, field := range []string{"Content-Length: " + strconv.Itoa(1+int(cut%9)), "Transfer-Encoding: chunked"} {
				var out []byte
				req := bodyRequest(eol, field, mask)
				if _, admitted, _, closing := d.processBuffer(req, &out, 0); !closing || admitted != 0 || len(frameResponses(t, out)) != 1 {
					t.Fatalf("%q: admitted %d, closing %v, %q; want one refusal and a close", req, admitted, closing, out)
				}
			}
		}
	})
}
