// Package vocab implements the text-processing layer of PLSH: tokenization,
// vocabulary management, and IDF weighting.
//
// The paper (§8) cleans tweets by removing non-alphabet characters and stop
// words, encodes each tweet as a sparse vector over a ~500,000-word
// vocabulary with Inverse Document Frequency scores ("to give more
// importance to less common words"), and normalizes to unit length. This
// package reproduces that pipeline for real text; the synthetic corpus
// generator (internal/corpus) bypasses strings and draws word IDs directly,
// weighting them through the same Weights table.
package vocab

import (
	"math"
	"slices"
	"strings"

	"plsh/internal/sparse"
)

// stopWords is a compact English stop list; the paper removes stop words
// before vector encoding.
var stopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "he": true, "in": true, "is": true, "it": true, "its": true,
	"of": true, "on": true, "or": true, "that": true, "the": true,
	"this": true, "to": true, "was": true, "were": true, "will": true,
	"with": true, "you": true, "your": true, "i": true, "me": true,
	"my": true, "we": true, "our": true, "they": true, "their": true,
	"not": true, "no": true, "so": true, "do": true, "if": true,
}

// Tokenize lowercases s, strips every non-alphabet character, splits on the
// resulting gaps, and drops stop words and empty tokens — the §8 cleaning
// pass. It returns the surviving tokens in order.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if !stopWords[tok] {
			tokens = append(tokens, tok)
		}
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Weights is a document-frequency table over word IDs and the smoothed IDF
// weights it gives. A Vocabulary keeps one over the words it interns, and
// the synthetic corpus (internal/corpus) one over the word IDs it draws.
// The zero value is an empty table; it is not safe for concurrent mutation.
type Weights struct {
	df   []int32 // document frequency per word id; ids past it have none
	docs int     // number of documents observed
}

// Docs returns the number of documents observed.
func (w *Weights) Docs() int { return w.docs }

// Observe counts one document given as word IDs: each distinct ID once.
// The distinctness check here and in EncodeIDs scans the IDs before each
// one rather than allocate a set: quadratic in a document's length, which
// for a tweet is about 7 words.
func (w *Weights) Observe(ids []uint32) {
	w.docs++
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			continue
		}
		if int(id) >= len(w.df) {
			w.df = append(w.df, make([]int32, int(id)+1-len(w.df))...)
		}
		w.df[id]++
	}
}

// IDF returns the smoothed inverse document frequency of word id:
// log((1+docs)/(1+df)) + 1. The +1 floor (as in scikit-learn's smooth IDF)
// keeps even ubiquitous words at positive weight, so no document encodes to
// the zero vector merely because its words are common.
func (w *Weights) IDF(id uint32) float64 {
	var df int32
	if int(id) < len(w.df) {
		df = w.df[id]
	}
	return math.Log(float64(1+w.docs)/float64(1+df)) + 1
}

// EncodeIDs builds the unit-normalized IDF-weighted sparse vector for a
// document given as word IDs, using dim as the vector dimensionality
// (allowing the vector space to be padded beyond the current vocabulary).
// Each distinct word contributes its IDF once (set-of-words model, as the
// paper's duplicate removal implies). ok is false for empty/zero documents,
// which the caller should skip (§8: "0-length queries ... are ignored").
func (w *Weights) EncodeIDs(ids []uint32, dim int) (vec sparse.Vector, ok bool) {
	var idx []uint32
	var val []float32
	for i, id := range ids {
		if int(id) >= dim || slices.Contains(ids[:i], id) {
			continue
		}
		idx = append(idx, id)
		val = append(val, float32(w.IDF(id)))
	}
	vec, err := sparse.NewVector(idx, val)
	if err != nil || !vec.Normalize() {
		return sparse.Vector{}, false
	}
	return vec, true
}

// Vocabulary maps words to dense IDs and weights them by the documents it
// has observed. It is not safe for concurrent mutation.
type Vocabulary struct {
	Weights
	ids  map[string]uint32
	word []string
}

// New returns an empty Vocabulary.
func New() *Vocabulary {
	return &Vocabulary{ids: make(map[string]uint32)}
}

// Size returns the number of distinct words.
func (v *Vocabulary) Size() int { return len(v.word) }

// Intern returns the ID for word, allocating one if needed.
func (v *Vocabulary) Intern(word string) uint32 {
	if id, ok := v.ids[word]; ok {
		return id
	}
	id := uint32(len(v.word))
	v.ids[word] = id
	v.word = append(v.word, word)
	return id
}

// Lookup returns the ID for word and whether it is known.
func (v *Vocabulary) Lookup(word string) (uint32, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// Word returns the word for id.
func (v *Vocabulary) Word(id uint32) string { return v.word[id] }

// ObserveDoc interns one document's tokens and counts it for DF accounting
// (each distinct word once), returning the tokens' IDs in order.
func (v *Vocabulary) ObserveDoc(tokens []string) []uint32 {
	ids := make([]uint32, len(tokens))
	for i, tok := range tokens {
		ids[i] = v.Intern(tok)
	}
	v.Observe(ids)
	return ids
}

// Encode tokenizes text against the existing vocabulary (unknown words are
// dropped, as for user queries against a built index) and encodes it.
func (v *Vocabulary) Encode(text string, dim int) (sparse.Vector, bool) {
	var ids []uint32
	for _, tok := range Tokenize(text) {
		if id, ok := v.Lookup(tok); ok {
			ids = append(ids, id)
		}
	}
	return v.EncodeIDs(ids, dim)
}
