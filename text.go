package plsh

import (
	"plsh/internal/corpus"
	"plsh/internal/vocab"
)

// Encoder converts text to IDF-weighted unit Vectors, the representation
// the paper uses for tweets (§8: lowercase, strip non-alphabet characters,
// drop stop words, weight by inverse document frequency, normalize).
//
// Feed the corpus (or a representative sample) through Observe first so
// document frequencies are meaningful, then Encode documents and queries.
// An Encoder is not safe for concurrent use.
type Encoder struct {
	v   *vocab.Vocabulary
	dim int
}

// NewEncoder returns an Encoder whose vector space has the given
// dimensionality. Words beyond dim are dropped at encode time; size the
// space generously (the paper uses 500,000).
func NewEncoder(dim int) *Encoder {
	return &Encoder{v: vocab.New(), dim: dim}
}

// Observe registers one document's text for vocabulary and document-
// frequency accounting.
func (e *Encoder) Observe(text string) {
	e.v.ObserveDoc(vocab.Tokenize(text))
}

// Encode converts text to a unit vector against the observed vocabulary.
// ok is false when no known word survives cleaning (the paper ignores such
// "0-length" documents).
func (e *Encoder) Encode(text string) (Vector, bool) {
	return e.v.Encode(text, e.dim)
}

// ObserveAndEncode interns the document's words, updates document
// frequencies, and encodes it in one pass — the streaming-ingest path.
func (e *Encoder) ObserveAndEncode(text string) (Vector, bool) {
	return e.v.EncodeIDs(e.v.ObserveDoc(vocab.Tokenize(text)), e.dim)
}

// VocabSize returns the number of distinct observed words.
func (e *Encoder) VocabSize() int { return e.v.Size() }

// Dim returns the encoder's vector-space dimensionality.
func (e *Encoder) Dim() int { return e.dim }

// SyntheticTweets generates n deterministic tweet-like unit vectors over a
// vocabulary of the given size: Zipf-distributed words, ~7.2 words per
// document, and a realistic fraction of near-duplicates ("retweets"). Use
// it to exercise the library without a corpus; the repository's benchmarks
// are built on the same generator.
func SyntheticTweets(n, vocabSize int, seed uint64) []Vector {
	c := corpus.Generate(corpus.Twitter(n, vocabSize, seed))
	out := make([]Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}
