package transport

import "bufio"

// The external tests speak the wire by hand, as peers of this and other
// revisions do, through these.
type (
	Request  = request
	Response = response
)

// Preamble is the preamble a peer of wire revision version sends.
func Preamble(version byte) []byte { return append([]byte(wireMagic), version) }

func AppendRequest(b []byte, req *Request) []byte { return appendRequest(b, req) }

func ReadPreamble(r *bufio.Reader) error { return readPreamble(r) }

// ReadRequest reads and decodes one request frame.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	p, err := readFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return decodeRequest(p)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	p, err := readFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return decodeResponse(p)
}
