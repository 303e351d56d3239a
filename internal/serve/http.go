package serve

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"time"
)

// The wire protocol is deliberately minimal HTTP/1.1: persistent
// connections, pipelining, no request bodies, no chunked encoding. A
// general-purpose HTTP stack spends a per-request allocation-and-header
// budget this path cannot afford on a small-core box; the daemon instead
// parses straight out of a per-connection read buffer and answers the hot
// endpoint with a canned response, so the steady-state admission path makes
// zero allocations and amortizes its syscalls over every request sharing a
// read (pipelined clients batch dozens per syscall).
var (
	respAdmit  = []byte("HTTP/1.1 204 No Content\r\n\r\n")
	fastPrefix = []byte("GET /req ")
	crlf2      = []byte("\r\n\r\n")
	hdrConn    = []byte("connection")
	closeToken = []byte("close")

	hdrContentLength    = []byte("content-length")
	hdrTransferEncoding = []byte("transfer-encoding")
	zero                = []byte("0")
)

const (
	connReadBuf  = 64 << 10
	connWriteBuf = 128 << 10
)

// processBuffer parses every complete request framed in in, appends the
// responses to *out, and reports how many bytes were consumed, how many
// fast-path requests were admitted, how many responses were produced, and
// whether the connection must close after flushing. It touches no shared
// state — admission stamps and counters are the caller's — which is what
// makes the hot path independently benchmarkable.
func (d *Daemon) processBuffer(in []byte, out *[]byte, shard int) (consumed, admitted, responded int, closing bool) {
	off := 0
	for {
		i := bytes.Index(in[off:], crlf2)
		if i < 0 {
			break
		}
		block := in[off : off+i+len(crlf2)]
		off += i + len(crlf2)
		if bytes.HasPrefix(block, fastPrefix) {
			admitted++
			responded++
			*out = append(*out, respAdmit...)
		} else {
			responded++
			if d.handleControl(block, out, shard) {
				closing = true
			}
		}
		if closeRequested(block) {
			closing = true
		}
		if closing {
			break
		}
	}
	return off, admitted, responded, closing
}

// closeRequested reports whether a request's header block asks to close
// the connection: a Connection field whose comma-separated options include
// "close" (RFC 9110 §7.6.1), the name and the option in any case. It runs
// on the admission path, so it splits into name and value only the lines
// whose name starts with a c.
func closeRequested(block []byte) bool {
	for lines := headerLinesOf(block); ; {
		line, ok := lines.next()
		if !ok {
			return false
		}
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i == len(line) || line[i]|0x20 != 'c' {
			continue
		}
		name, value, ok := field(line)
		if !ok || !bytes.EqualFold(name, hdrConn) {
			continue
		}
		for len(value) > 0 {
			option := value
			if c := bytes.IndexByte(value, ','); c >= 0 {
				option, value = value[:c], value[c+1:]
			} else {
				value = nil
			}
			if bytes.EqualFold(bytes.TrimSpace(option), closeToken) {
				return true
			}
		}
	}
}

// headerLines walks the field lines of a request's header block: every
// line after the request line, split on LF so that a line ending in a bare
// LF counts too (RFC 9112 §2.2). It and field allocate nothing, so the
// admission path can use them.
type headerLines []byte

func headerLinesOf(block []byte) headerLines {
	if nl := bytes.IndexByte(block, '\n'); nl >= 0 {
		return block[nl+1:]
	}
	return nil
}

// next returns the next line; ok is false once no line is left.
func (h *headerLines) next() (line []byte, ok bool) {
	if len(*h) == 0 {
		return nil, false
	}
	line = *h
	if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
		line, *h = line[:nl], line[nl+1:]
	} else {
		*h = nil
	}
	return line, true
}

// field splits a header line into its name and value, each trimmed of
// surrounding whitespace, the line's CR among it; ok is false for a line
// without a colon.
func field(line []byte) (name, value []byte, ok bool) {
	c := bytes.IndexByte(line, ':')
	if c < 0 {
		return nil, nil, false
	}
	return bytes.TrimSpace(line[:c]), bytes.TrimSpace(line[c+1:]), true
}

// handleControl serves the slow path: health, telemetry, and policy
// lifecycle endpoints. Allocation here is fine — control traffic is a few
// requests per second, not a hundred thousand.
func (d *Daemon) handleControl(block []byte, out *[]byte, shard int) (closing bool) {
	d.wire.Control.Add(shard, 1)
	// Request bodies would desync the \r\n\r\n framing; refuse them.
	if status := bodyRefusal(block); status != "" {
		d.wire.BadRequests.Add(shard, 1)
		appendResponse(out, status, "", nil)
		return true
	}
	eol := bytes.IndexByte(block, '\r')
	if eol < 0 {
		d.wire.BadRequests.Add(shard, 1)
		appendResponse(out, "400 Bad Request", "", nil)
		return true
	}
	line := string(block[:eol])
	method, rest, ok := strings.Cut(line, " ")
	target, _, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 {
		d.wire.BadRequests.Add(shard, 1)
		appendResponse(out, "400 Bad Request", "", nil)
		return true
	}
	path, query, _ := strings.Cut(target, "?")

	status, ctype, body := d.route(method, path, query)
	if status == "" {
		d.wire.BadRequests.Add(shard, 1)
		status = "404 Not Found"
	}
	appendResponse(out, status, ctype, body)
	return false
}

// bodyRefusal returns the status refusing a request whose header block
// announces a body — a Content-Length other than 0, or any
// Transfer-Encoding — or "" when it announces none. Field names match
// whatever their case (RFC 9110 §5.1), a name padded with whitespace still
// counts, and a line may end in a bare LF (RFC 9112 §2.2): a request that
// might carry a body is refused rather than framed wrongly.
func bodyRefusal(block []byte) string {
	for lines := headerLinesOf(block); ; {
		line, ok := lines.next()
		if !ok {
			return ""
		}
		switch name, value, _ := field(line); {
		case bytes.EqualFold(name, hdrTransferEncoding):
			return "501 Not Implemented"
		case bytes.EqualFold(name, hdrContentLength) && !bytes.Equal(value, zero):
			return "411 Length Required"
		}
	}
}

// appendResponse appends a full HTTP/1.1 response (with Content-Length, so
// keep-alive framing holds) to *out.
func appendResponse(out *[]byte, status, ctype string, body []byte) {
	b := *out
	b = append(b, "HTTP/1.1 "...)
	b = append(b, status...)
	b = append(b, "\r\n"...)
	if ctype != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, ctype...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	*out = b
}

// serveConn owns one connection: read, parse, stamp admissions, respond.
// Buffers live for the connection's lifetime; a pipelined steady state
// allocates nothing per request.
func (d *Daemon) serveConn(c net.Conn, shard int) {
	defer c.Close()
	in := make([]byte, connReadBuf)
	out := make([]byte, 0, connWriteBuf)
	fill := 0
	epoch := d.bridge.Epoch()
	for {
		if fill == len(in) {
			// No terminator within a full buffer: oversized request.
			d.wire.BadRequests.Add(shard, 1)
			return
		}
		n, err := c.Read(in[fill:])
		if n > 0 {
			d.wire.ReadBytes.Add(shard, uint64(n))
			fill += n
			consumed, admitted, responded, closing := d.processBuffer(in[:fill], &out, shard)
			if admitted > 0 {
				d.wire.Accepted.Add(shard, uint64(admitted))
				d.bridge.Admit(int64(time.Since(epoch)), uint32(admitted))
			}
			if len(out) > 0 {
				nw, werr := c.Write(out)
				d.wire.WrittenBytes.Add(shard, uint64(nw))
				d.wire.Responded.Add(shard, uint64(responded))
				out = out[:0]
				if werr != nil {
					return
				}
			}
			if consumed > 0 {
				copy(in, in[consumed:fill])
				fill -= consumed
			}
			if closing {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
