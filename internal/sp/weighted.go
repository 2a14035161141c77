package sp

import (
	"math"
	"sort"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// WeightedReport refines the binary candidate set with a posterior: the
// paper's §5.1 assumes "a very low probability that all the individuals
// in the anonymity set will actually make exactly the same request",
// i.e. that membership of the set is what matters. A sharper attacker
// weights candidates — a user with many samples inside every context is
// a likelier issuer than one who barely grazes each box. The weighted
// attack quantifies how much that sharpening buys: if the posterior is
// near uniform, nominal k is honest; if it is skewed, the *effective*
// anonymity (entropy) is lower than k suggests.
type WeightedReport struct {
	// Candidates and Posterior are aligned: Posterior[i] is the
	// normalized weight of Candidates[i]. Sorted by descending weight.
	Candidates []phl.UserID
	Posterior  []float64
	// Entropy is the Shannon entropy (bits) of the posterior.
	Entropy float64
	// EffectiveK is 2^Entropy — the size of a uniform set with the same
	// uncertainty ("effective anonymity set size").
	EffectiveK float64
	// TopConfidence is the largest posterior mass: the attacker's best
	// single guess.
	TopConfidence float64
}

// Weighted computes the per-candidate posterior over one series' boxes.
// The candidates are Score's: the users LT-consistent with every box.
// Each candidate's weight is the product over boxes of its in-box
// sample count normalized by total in-box samples (Laplace-smoothed),
// i.e. a naive-Bayes issuer model with the true location database as
// likelihood source.
func Weighted(kn phl.Storer, boxes []geo.STBox) WeightedReport {
	cands := kn.LTConsistentUsers(boxes)
	if len(cands) == 0 {
		return WeightedReport{}
	}
	logw := make([]float64, len(cands))
	for _, b := range boxes {
		counts := make([]float64, len(cands))
		total := 0.0
		for i, u := range cands {
			c := float64(len(kn.History(u).In(b))) + 1 // smoothing
			counts[i] = c
			total += c
		}
		for i := range cands {
			logw[i] += math.Log(counts[i] / total)
		}
	}
	// Normalize in log space.
	maxLog := math.Inf(-1)
	for _, lw := range logw {
		if lw > maxLog {
			maxLog = lw
		}
	}
	weights := make([]float64, len(cands))
	sum := 0.0
	for i, lw := range logw {
		weights[i] = math.Exp(lw - maxLog)
		sum += weights[i]
	}
	rep := WeightedReport{
		Candidates: append([]phl.UserID(nil), cands...),
		Posterior:  weights,
	}
	for i := range rep.Posterior {
		rep.Posterior[i] /= sum
	}
	sort.Sort(&byPosterior{rep.Candidates, rep.Posterior})
	for _, p := range rep.Posterior {
		if p > 0 {
			rep.Entropy -= p * math.Log2(p)
		}
	}
	rep.EffectiveK = math.Exp2(rep.Entropy)
	rep.TopConfidence = rep.Posterior[0]
	return rep
}

type byPosterior struct {
	users []phl.UserID
	post  []float64
}

func (b *byPosterior) Len() int           { return len(b.users) }
func (b *byPosterior) Less(i, j int) bool { return b.post[i] > b.post[j] }
func (b *byPosterior) Swap(i, j int) {
	b.users[i], b.users[j] = b.users[j], b.users[i]
	b.post[i], b.post[j] = b.post[j], b.post[i]
}
