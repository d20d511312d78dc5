"""Seeded synthetic inputs for the benchmark: latent-variable behaviour models.

A hidden model has one latent cause U, a few root variables driven by U and
their own noise, and a binary utility Y driven by the decision D, every root,
U and its own noise.  Because the roots never depend on D, their marginals are
shared across decisions, so every canonical response-type polytope built from
the generated tables is feasible.  Every exogenous atom has positive mass and
every mechanism is onto, so every observable cell has positive probability.

This module is plain Python: it never imports ``beliefbound``.  It emits the
package's own JSON document formats (model, dataset, table), computes the
tables by enumerating the exogenous atoms itself, and exposes the hidden
model's true counterfactual quantities so the benchmark can check the
package's answers against values it did not compute.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

DECISION = "D"
UTILITY = "Y"
LATENT = "U"


def _weights(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


class LatentModel:
    """Hidden model: U -> roots, (D, roots, U) -> Y, independent noises.

    ``roots`` maps root names to domain sizes; domains are ``0..size-1``.
    ``exact`` selects ``Fraction`` (True) or float (False) probabilities in
    the emitted documents; the model itself is always exact.
    """

    def __init__(
        self,
        seed: int,
        roots: dict[str, int],
        n_decisions: int = 2,
        latent_size: int = 2,
        exact: bool = False,
    ) -> None:
        rng = random.Random(seed)
        self.exact = exact
        self.roots = dict(sorted(roots.items()))
        self.decisions = tuple(range(n_decisions))
        self.domains = {name: tuple(range(size)) for name, size in self.roots.items()}
        self.domains[UTILITY] = (0, 1)
        self.scope = tuple(sorted(self.domains))
        self.latent = tuple(range(latent_size))
        # Exogenous block: U plus one noise per endogenous non-decision variable.
        self.exo_names = (LATENT, *(f"N_{v}" for v in self.scope))
        self.exo_domains = {LATENT: self.latent}
        self.exo_probs = {LATENT: _weights(rng, latent_size)}
        for v in self.scope:
            self.exo_domains[f"N_{v}"] = tuple(range(len(self.domains[v])))
            if v == UTILITY:
                # Y's noise leans towards 0 so the mechanism carries signal.
                heavy = Fraction(rng.randint(5, 9), 10)
                self.exo_probs[f"N_{v}"] = [heavy, 1 - heavy]
            else:
                self.exo_probs[f"N_{v}"] = _weights(rng, len(self.domains[v]))
        # Root r = (noise + offset[u]) mod |r|; Y = noise xor bit[d, roots, u].
        self.root_offset = {
            name: [rng.randrange(size) for _ in self.latent]
            for name, size in self.roots.items()
        }
        root_names = tuple(self.roots)
        self.y_bit = {
            key: rng.randrange(2)
            for key in product(
                self.decisions, *[self.domains[r] for r in root_names], self.latent
            )
        }
        self._responses: dict = {}
        self.atoms = [
            (atom, _prod(self.exo_probs[n][v] for n, v in zip(self.exo_names, atom)))
            for atom in product(*[self.exo_domains[n] for n in self.exo_names])
        ]

    # -- evaluation -------------------------------------------------------

    def respond(self, atom, d, do=None) -> dict:
        """Values of every endogenous variable for one exogenous atom (memoised)."""
        key = (atom, d, tuple(sorted((do or {}).items())))
        if key not in self._responses:
            self._responses[key] = self._respond(atom, d, do or {})
        return self._responses[key]

    def _respond(self, atom, d, do) -> dict:
        u = dict(zip(self.exo_names, atom))
        values = {}
        for name, size in self.roots.items():
            if name in do:
                values[name] = do[name]
            else:
                values[name] = (u[f"N_{name}"] + self.root_offset[name][u[LATENT]]) % size
        if UTILITY in do:
            values[UTILITY] = do[UTILITY]
        else:
            key = (d, *[values[r] for r in self.roots], u[LATENT])
            values[UTILITY] = u[f"N_{UTILITY}"] ^ self.y_bit[key]
        return values

    def prob(self, events) -> Fraction:
        """P(every (decision, do, assignment) event holds jointly)."""
        total = Fraction(0)
        for atom, p in self.atoms:
            if all(
                all(self.respond(atom, d, do)[k] == v for k, v in event.items())
                for d, do, event in events
            ):
                total += p
        return total

    def table(self, d, do=None) -> dict[tuple, Fraction]:
        """P_d(scope | do) over the name-sorted scope, every cell listed."""
        cells = {key: Fraction(0) for key in product(*[self.domains[v] for v in self.scope])}
        for atom, p in self.atoms:
            values = self.respond(atom, d, do)
            cells[tuple(values[v] for v in self.scope)] += p
        return cells

    # -- hidden truths ----------------------------------------------------

    def mean_y(self, d, do, c) -> Fraction:
        """E[Y | do(D=d, do), c], with c read in the intervened world."""
        mass = self.prob([(d, do, c)])
        return self.prob([(d, do, {**c, UTILITY: 1})]) / mass

    def gap(self, d, d_star, z, c) -> Fraction:
        """True preference gap of d over d_star under do(z), given c."""
        return self.mean_y(d, z, c) - self.mean_y(d_star, z, c)

    def fairness_gap(self, d, attr, z0, c) -> Fraction:
        """E[Y_{attr<-other} | attr=z0, c] - E[Y | attr=z0, c] under decision d."""
        (z1,) = [v for v in self.domains[attr] if v != z0]
        given = {**c, attr: z0}
        mass = self.prob([(d, None, given)])
        flipped = self.prob([(d, None, given), (d, {attr: z1}, {UTILITY: 1})]) / mass
        return flipped - self.prob([(d, None, {**given, UTILITY: 1})]) / mass

    def harm_mass(self, d, d0, c) -> Fraction:
        """P(Y_d = 1, Y_d0 = 1 | c): the joint counterfactual the harm bound covers."""
        mass = self.prob([(d, None, c)])
        return self.prob([(d, None, {**c, UTILITY: 1}), (d0, None, {UTILITY: 1})]) / mass

    def direct_gap(self, d, attr, z0, z1) -> Fraction:
        """E[Y | do(D=d, attr=z1)] - E[Y | do(D=d, attr=z0)]."""
        return self.mean_y(d, {attr: z1}, {}) - self.mean_y(d, {attr: z0}, {})

    # -- documents in the package's own formats ---------------------------

    def _p(self, p: Fraction):
        return f"{p.numerator}/{p.denominator}" if self.exact else float(p)

    def table_doc(self, cells: dict[tuple, Fraction], scope=None) -> dict:
        scope = scope or self.scope
        doms = {**self.domains, DECISION: self.decisions}
        return {
            "scope": [{"name": v, "domain": list(doms[v])} for v in scope],
            "entries": [
                {"assignment": dict(zip(scope, key)), "p": self._p(p)}
                for key, p in cells.items()
            ],
        }

    def dataset_doc(self, domain: dict | None = None, label: str = "exp") -> dict:
        """Behavioural dataset; ``domain`` adds one experimental do() domain."""
        doc = {
            "decision": {"name": DECISION, "domain": list(self.decisions)},
            "utility": UTILITY,
            "per_decision": {str(d): self.table_doc(self.table(d)) for d in self.decisions},
        }
        if domain:
            doc["domains"] = [
                {
                    "label": label,
                    "intervened": dict(domain),
                    "per_decision": {
                        str(d): self.table_doc(self.table(d, domain)) for d in self.decisions
                    },
                }
            ]
        return doc

    def policy_joint_doc(self, seed: int) -> dict:
        """Joint table over (D, scope) under a seeded positive context-free policy."""
        policy = _weights(random.Random(seed), len(self.decisions))
        cells = {}
        for d, pd in zip(self.decisions, policy):
            for key, p in self.table(d).items():
                full = dict(zip(self.scope, key))
                full[DECISION] = d
                cells[tuple(full[v] for v in sorted(full))] = pd * p
        scope = tuple(sorted((*self.scope, DECISION)))
        return self.table_doc(cells, scope)

    def model_doc(self) -> dict:
        """The hidden model itself, with D a constant (it is always intervened)."""
        mechanisms = {DECISION: [{"given": {}, "value": self.decisions[0]}]}
        variables = [
            {"name": DECISION, "domain": list(self.decisions), "parents": [], "exo_parents": []}
        ]
        for name, size in self.roots.items():
            noise = f"N_{name}"
            variables.append(
                {"name": name, "domain": list(self.domains[name]), "parents": [],
                 "exo_parents": [LATENT, noise]}
            )
            mechanisms[name] = [
                {"given": {LATENT: u, noise: n}, "value": (n + self.root_offset[name][u]) % size}
                for u in self.latent
                for n in self.exo_domains[noise]
            ]
        parents = [DECISION, *self.roots]
        variables.append(
            {"name": UTILITY, "domain": [0, 1], "parents": parents,
             "exo_parents": [LATENT, f"N_{UTILITY}"]}
        )
        mechanisms[UTILITY] = [
            {"given": {**dict(zip(parents, key[:-1])), LATENT: key[-1], f"N_{UTILITY}": n},
             "value": n ^ bit}
            for key, bit in self.y_bit.items()
            for n in (0, 1)
        ]
        return {
            "variables": variables,
            "exogenous": [
                {"name": n, "domain": list(self.exo_domains[n])} for n in self.exo_names
            ],
            "exogenous_distribution": [
                {"assignment": dict(zip(self.exo_names, atom)), "p": self._p(p)}
                for atom, p in self.atoms
            ],
            "mechanisms": mechanisms,
        }


def _prod(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


# -- oracle ladder rungs ------------------------------------------------------

# name -> (roots, canonical atoms under the CLI's default skeleton with binary D)
RUNGS = {
    "1k": ({"W": 2, "Z": 2}, 1_024),
    "25k": ({"W": 3, "Z": 2}, 24_576),
    "115k": ({"Z": 7}, 114_688),
}


def canonical_atoms(roots: dict[str, int], n_decisions: int = 2) -> int:
    """Atom count of the default skeleton: roots, and Y responding to everything."""
    combos = n_decisions
    atoms = 1
    for size in roots.values():
        combos *= size
        atoms *= size
    return atoms * 2**combos


def ladder_model(rung: str, seed: int) -> LatentModel:
    roots, _ = RUNGS[rung]
    return LatentModel(seed, roots, n_decisions=2, latent_size=2, exact=False)
