package ctl

import "muml/internal/automata"

// NNF converts the formula to negation normal form: negations are pushed
// down to atoms and the deadlock symbol using the CTL dualities
//
//	¬AX f = EX ¬f          ¬EX f = AX ¬f
//	¬AF f = EG ¬f          ¬EF f = AG ¬f
//	¬AG f = EF ¬f          ¬EG f = AF ¬f
//	¬A[f U g] = E[¬g U ¬f∧¬g] ∨ EG ¬g
//	¬E[f U g] = A[¬g U ¬f∧¬g] ∨ AG ¬g   (dually)
//
// Bounded F and G operators dualize with the same bound. Implications are
// rewritten to disjunctions. The dualities hold under the finite-maximal-
// path semantics implemented by Check (AX vacuous at deadlocks, EX false).
// The bitset Checker evaluates AX, AG and EG, bounded or not, through the
// same dualities: each is the complement of its dual over ¬f.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, negated bool) Formula {
	switch n := f.(type) {
	case trueNode:
		if negated {
			return False
		}
		return True
	case falseNode:
		if negated {
			return True
		}
		return False
	case *atomNode:
		if negated {
			return &notNode{f: n}
		}
		return n
	case deadlockNode:
		if negated {
			return &notNode{f: n}
		}
		return n
	case *notNode:
		return nnf(n.f, !negated)
	case *andNode:
		if negated {
			return Or(nnf(n.l, true), nnf(n.r, true))
		}
		return And(nnf(n.l, false), nnf(n.r, false))
	case *orNode:
		if negated {
			return And(nnf(n.l, true), nnf(n.r, true))
		}
		return Or(nnf(n.l, false), nnf(n.r, false))
	case *impNode:
		// l → r ≡ ¬l ∨ r.
		return nnf(Or(Not(n.l), n.r), negated)
	case *axNode:
		if negated {
			return EX(nnf(n.f, true))
		}
		return AX(nnf(n.f, false))
	case *exNode:
		if negated {
			return AX(nnf(n.f, true))
		}
		return EX(nnf(n.f, false))
	case *afNode:
		if negated {
			return &egNode{f: nnf(n.f, true), bound: n.bound}
		}
		return &afNode{f: nnf(n.f, false), bound: n.bound}
	case *efNode:
		if negated {
			return &agNode{f: nnf(n.f, true), bound: n.bound}
		}
		return &efNode{f: nnf(n.f, false), bound: n.bound}
	case *agNode:
		if negated {
			return &efNode{f: nnf(n.f, true), bound: n.bound}
		}
		return &agNode{f: nnf(n.f, false), bound: n.bound}
	case *egNode:
		if negated {
			return &afNode{f: nnf(n.f, true), bound: n.bound}
		}
		return &egNode{f: nnf(n.f, false), bound: n.bound}
	case *auNode:
		if negated {
			nl, nr := nnf(n.l, true), nnf(n.r, true)
			return Or(EU(nr, And(nl, nr)), EG(nr))
		}
		return AU(nnf(n.l, false), nnf(n.r, false))
	case *euNode:
		if negated {
			nl, nr := nnf(n.l, true), nnf(n.r, true)
			return Or(AU(nr, And(nl, nr)), AG(nr))
		}
		return EU(nnf(n.l, false), nnf(n.r, false))
	default:
		return f
	}
}

// IsACTL reports whether the formula lies in the timed ACTL fragment used
// for role invariants and pattern constraints (Footnote 3): after NNF
// conversion only universal path quantifiers occur. Only ACTL formulas are
// compositional in the sense of Section 2.4.
func IsACTL(f Formula) bool {
	var universal func(Formula) bool
	universal = func(f Formula) bool {
		switch n := f.(type) {
		case *exNode, *efNode, *egNode, *euNode:
			return false
		case *notNode:
			return universal(n.f)
		case *andNode:
			return universal(n.l) && universal(n.r)
		case *orNode:
			return universal(n.l) && universal(n.r)
		case *axNode:
			return universal(n.f)
		case *afNode:
			return universal(n.f)
		case *agNode:
			return universal(n.f)
		case *auNode:
			return universal(n.l) && universal(n.r)
		default:
			return true
		}
	}
	return universal(NNF(f))
}

// WeakenForChaos applies the proposition-weakening trick of Section 2.7:
// in NNF, every positive atom p becomes (p ∨ χ) and every negated atom ¬p
// becomes (¬p ∨ χ), where χ is the chaos proposition carried by s_∀ and
// s_δ. The weakened formula treats chaotic states as satisfying every
// (positive or negative) literal, which is the efficient alternative to
// duplicating the chaos states for every proposition subset.
//
// The deadlock symbol δ is deliberately *not* weakened: deadlock freedom
// must still flag deadlocks inside the chaotic closure (s_δ), since those
// are exactly the unconfirmed refusal hypotheses the synthesis loop has to
// test.
func WeakenForChaos(f Formula) Formula {
	chaos := Atom(automata.ChaosProposition)
	var weaken func(Formula) Formula
	weaken = func(f Formula) Formula {
		switch n := f.(type) {
		case *atomNode:
			return Or(n, chaos)
		case *notNode:
			// NNF guarantees n.f is an atom or deadlock.
			if _, ok := n.f.(*atomNode); ok {
				return Or(n, chaos)
			}
			return n
		case *andNode:
			return And(weaken(n.l), weaken(n.r))
		case *orNode:
			return Or(weaken(n.l), weaken(n.r))
		case *axNode:
			return AX(weaken(n.f))
		case *exNode:
			return EX(weaken(n.f))
		case *afNode:
			return &afNode{f: weaken(n.f), bound: n.bound}
		case *efNode:
			return &efNode{f: weaken(n.f), bound: n.bound}
		case *agNode:
			return &agNode{f: weaken(n.f), bound: n.bound}
		case *egNode:
			return &egNode{f: weaken(n.f), bound: n.bound}
		case *auNode:
			return AU(weaken(n.l), weaken(n.r))
		case *euNode:
			return EU(weaken(n.l), weaken(n.r))
		default:
			return f
		}
	}
	return weaken(NNF(f))
}
