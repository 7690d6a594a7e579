"""Independent brute-force oracles.

These enumerate every table assignment over a support set and evaluate
formulas with the plain evaluator, bypassing the grounding and search
machinery entirely; search results are checked against them.
"""

import itertools

from ethica.logic import FiniteModel, Sort, evaluate
from ethica.registry import ETHICA_SIGNATURE, axiom_set


def atom_list(support, things, worlds=()):
    atoms = []
    for pred in support:
        decl = ETHICA_SIGNATURE.declaration(pred)
        universes = [things if s is Sort.THING else worlds
                     for s in decl.argument_sorts]
        for row in itertools.product(*universes):
            atoms.append((pred, row))
    return atoms


def all_models(support, n_things, n_worlds=0):
    """Every model over the support predicates at the given sizes."""
    things = tuple(f"t{i}" for i in range(n_things))
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    atoms = atom_list(support, things, worlds)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        tables = {}
        for bit, (pred, row) in zip(bits, atoms):
            if bit:
                tables.setdefault(pred, set()).add(row)
        yield FiniteModel("brute", things, worlds, tables)


def refutes(model, premises, target):
    """model |= every premise and model |/= target, by direct evaluation."""
    entries = axiom_set(premises)
    target_entry = axiom_set([target])[0]
    return (all(evaluate(entry.formula, model) for entry in entries)
            and not evaluate(target_entry.formula, model))


def countermodel_exists(premises, target, support, n_things, n_worlds=0):
    return any(refutes(model, premises, target)
               for model in all_models(support, n_things, n_worlds))


def random_model(rng, n_things, support, n_worlds=0, density=0.5):
    """A pseudo-random model over the support predicates."""
    things = tuple(f"t{i}" for i in range(n_things))
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    tables = {}
    for pred, row in atom_list(support, things, worlds):
        if rng.random() < density:
            tables.setdefault(pred, set()).add(row)
    return FiniteModel("random", things, worlds, tables)


def stabilizer_group_perms(used_things, n_things, used_worlds, n_worlds,
                           atoms, atom_index):
    """Every non-identity atom-index permutation induced by a relabeling
    that fixes the witness elements pointwise: the whole stabilizer, all
    (free things)! x (free worlds)! - 1 of it, in the search's
    ``_stabilizer_perms`` format (entry i is the index of the image of
    ``atoms[i]``)."""
    free_things = [f"t{i}" for i in range(n_things) if i not in used_things]
    free_worlds = [f"w{i}" for i in range(n_worlds) if i not in used_worlds]
    perms = []
    for thing_image in itertools.permutations(free_things):
        for world_image in itertools.permutations(free_worlds):
            mapping = dict(zip(free_things, thing_image))
            mapping.update(zip(free_worlds, world_image))
            if all(src == dst for src, dst in mapping.items()):
                continue
            perms.append(tuple(
                atom_index[pred, tuple(mapping.get(label, label)
                                       for label in labels)]
                for pred, labels in atoms))
    return perms
