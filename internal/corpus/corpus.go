// Package corpus generates synthetic document collections that stand in for
// the paper's proprietary datasets.
//
// The paper evaluates on 1.05 billion real tweets (≈7.2 words per tweet
// after cleaning, 500,000-word vocabulary, Zipf-distributed words) and, for
// model validation, 8 million Wikipedia abstracts. Neither dataset is
// available, so this package synthesizes collections that match the three
// properties LSH performance actually depends on:
//
//  1. sparsity — document length distribution (NNZ per row);
//  2. skew — Zipf word-frequency distribution, which controls hyperplane
//     cache behaviour (§5.1.1) and inverted-index candidate counts (§8.1);
//  3. distance profile — a tunable fraction of near-duplicate documents
//     ("retweets") so that R-near neighbors exist and recall can be
//     measured against ground truth.
//
// All generation is deterministic given the seed.
package corpus

import (
	"math"

	"plsh/internal/rng"
	"plsh/internal/sparse"
	"plsh/internal/vocab"
)

// Config parameterizes a synthetic collection.
type Config struct {
	// Docs is the number of documents to generate.
	Docs int
	// VocabSize is the dimensionality D of the vector space.
	VocabSize int
	// ZipfAlpha is the word-frequency skew exponent (must be > 1).
	ZipfAlpha float64
	// MeanLen is the mean number of word draws per document.
	MeanLen float64
	// NearDupRate is the probability that a document is generated as a
	// near-duplicate of an earlier one rather than fresh.
	NearDupRate float64
	// NearDupEdits is how many word substitutions a near-duplicate applies.
	NearDupEdits int
	// Seed makes generation deterministic.
	Seed uint64
}

// Twitter returns the tweet-like preset: short documents over a skewed
// vocabulary with a retweet-style near-duplicate fraction.
func Twitter(docs, vocabSize int, seed uint64) Config {
	return Config{
		Docs:         docs,
		VocabSize:    vocabSize,
		ZipfAlpha:    1.07,
		MeanLen:      7.2,
		NearDupRate:  0.12,
		NearDupEdits: 1,
		Seed:         seed,
	}
}

// Wikipedia returns the abstract-like preset used by the paper for model
// validation: longer documents, flatter skew.
func Wikipedia(docs, vocabSize int, seed uint64) Config {
	return Config{
		Docs:         docs,
		VocabSize:    vocabSize,
		ZipfAlpha:    1.15,
		MeanLen:      48,
		NearDupRate:  0.04,
		NearDupEdits: 4,
		Seed:         seed,
	}
}

// Collection is a generated corpus: token ID lists and the encoded unit
// vectors in one CSR arena.
type Collection struct {
	Cfg  Config
	Docs [][]uint32     // raw word-ID lists (documents that encoded to zero are dropped)
	Mat  *sparse.Matrix // row i encodes Docs[i]
}

// Generate builds a Collection from cfg.
func Generate(cfg Config) *Collection {
	g := NewStream(cfg)
	c := &Collection{Cfg: cfg, Mat: sparse.NewMatrix(cfg.VocabSize, cfg.Docs, int(float64(cfg.Docs)*cfg.MeanLen))}
	for len(c.Docs) < cfg.Docs {
		doc := g.NextTokens()
		vec, ok := g.EncodeIDs(doc, cfg.VocabSize)
		if !ok {
			continue
		}
		c.Docs = append(c.Docs, doc)
		c.Mat.AppendRow(vec)
	}
	return c
}

// SampleQueries returns n encoded queries drawn uniformly from the
// collection (the paper queries with "a random subset of 1000 tweets from
// the database", §8) using an independent stream derived from seed.
func (c *Collection) SampleQueries(n int, seed uint64) []sparse.Vector {
	src := rng.New(seed)
	out := make([]sparse.Vector, 0, n)
	for len(out) < n {
		i := src.Intn(len(c.Docs))
		out = append(out, c.Mat.Row(i).Clone())
	}
	return out
}

// Stream generates documents one at a time, observing each in its IDF
// table (the embedded vocab.Weights) as it goes. It backs both batch
// Generate and the streaming examples/benchmarks, where tweets arrive
// continuously (§6).
type Stream struct {
	vocab.Weights
	cfg    Config
	src    *rng.Source
	zipf   *rng.Zipf
	perm   []uint32   // random relabeling of Zipf ranks to word IDs
	recent [][]uint32 // reservoir of recent docs for near-dup generation
}

// NewStream returns a document stream for cfg.
func NewStream(cfg Config) *Stream {
	if cfg.VocabSize <= 1 {
		panic("corpus: VocabSize must be > 1")
	}
	if cfg.MeanLen <= 0 {
		panic("corpus: MeanLen must be > 0")
	}
	src := rng.New(cfg.Seed)
	s := &Stream{
		cfg:  cfg,
		src:  src,
		zipf: rng.NewZipf(src.Split(), cfg.ZipfAlpha, cfg.VocabSize),
	}
	// Scatter Zipf ranks over word IDs so that "hot" words are not the
	// numerically smallest IDs; real vocabularies are not frequency-sorted.
	perm := make([]int, cfg.VocabSize)
	src.Split().Perm(perm)
	s.perm = make([]uint32, cfg.VocabSize)
	for i, p := range perm {
		s.perm[i] = uint32(p)
	}
	return s
}

// docLen draws a document length: 1 + Poisson(MeanLen−1), approximated by
// inversion for small means and a normal approximation for large ones.
func (s *Stream) docLen() int {
	lambda := s.cfg.MeanLen - 1
	if lambda <= 0 {
		return 1
	}
	if lambda < 30 {
		// Knuth inversion.
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= s.src.Float64()
			if p <= l {
				return 1 + k
			}
			k++
		}
	}
	k := int(lambda + math.Sqrt(lambda)*s.src.Norm() + 0.5)
	if k < 0 {
		k = 0
	}
	return 1 + k
}

// NextTokens generates the next document's word-ID list.
func (s *Stream) NextTokens() []uint32 {
	var doc []uint32
	if len(s.recent) > 16 && s.src.Float64() < s.cfg.NearDupRate {
		// Near-duplicate of a random recent document with a few edits:
		// the "retweet" path that plants genuine R-near neighbors.
		base := s.recent[s.src.Intn(len(s.recent))]
		doc = append([]uint32(nil), base...)
		for e := 0; e < s.cfg.NearDupEdits && len(doc) > 0; e++ {
			doc[s.src.Intn(len(doc))] = s.draw()
		}
	} else {
		n := s.docLen()
		doc = make([]uint32, n)
		for i := range doc {
			doc[i] = s.draw()
		}
	}
	s.Observe(doc)
	if len(s.recent) < 4096 {
		s.recent = append(s.recent, doc)
	} else {
		s.recent[s.src.Intn(len(s.recent))] = doc
	}
	return doc
}

func (s *Stream) draw() uint32 { return s.perm[s.zipf.Next()] }

// NextVector generates and encodes the next document, skipping any that
// encode to zero.
func (s *Stream) NextVector() sparse.Vector {
	for {
		if v, ok := s.EncodeIDs(s.NextTokens(), s.cfg.VocabSize); ok {
			return v
		}
	}
}
