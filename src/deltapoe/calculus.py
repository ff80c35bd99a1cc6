"""The derivation engine.

A derivation is a tree of rule applications over change problems.  Rule
applications are constructed through :func:`apply`, which enforces each
rule's side conditions and creates the premise problems; scripts drive
the same machinery through :func:`build`.  :func:`check` replays a whole
tree from its root conclusion, recomputing every premise and side
condition rather than trusting what the tree (or file) claims, then
verifies justification profiles, plan-fragment constraints and
validation gates.  Solved trees yield an implementation plan
(:func:`extract_plan`) and a fully determined change expression
(:func:`solution_of`).

Premises created by the three bridging rules (domain addition, removal,
refinement) are design obligations for a separate greenfield process;
they are not derived further here, only discharged against a granted
validation from the problem's validator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from . import model as m
from .artifacts import (
    EMPTY_JUSTIFICATION,
    Justification,
    PlanStep,
    RULE_ARITY,
    RuleId,
    ValidationRecord,
    ValidationStatus,
    ValidationTarget,
)
from .dsl import (
    ApplyStatement,
    DerivationScript,
    DischargeStatement,
    Model,
    NodePath,
    path_str,
)
from .printer import change_str, env_str, need_str


# --- errors -----------------------------------------------------------------

class RuleError(Exception):
    """A rule application that cannot be made."""

    kind = "RuleError"

    def __init__(self, message: str, path: NodePath = (), cause_kind: str | None = None):
        super().__init__(message)
        self.path = path
        self.cause_kind = cause_kind

    def at(self, path: NodePath) -> "RuleError":
        self.path = path
        return self


class SideConditionViolated(RuleError):
    kind = "SideConditionViolated"

    def __init__(self, message, path=(), cause_kind=None, shared=frozenset()):
        super().__init__(message, path, cause_kind)
        self.shared = shared


class TrustMissing(RuleError):
    kind = "TrustMissing"


class ArityMismatch(RuleError):
    kind = "ArityMismatch"


class NotOpen(RuleError):
    kind = "NotOpen"


class BadPath(RuleError):
    kind = "BadPath"


class UnsolvedTree(Exception):
    pass


class CycleDetected(Exception):
    def __init__(self, stuck):
        super().__init__(f"plan constraints form a cycle over: {', '.join(sorted(stuck))}")
        self.stuck = tuple(sorted(stuck))


# --- derivation nodes ----------------------------------------------------------

@dataclass(frozen=True)
class DerivationNode:
    """One step of a derivation.

    ``rule`` is ``None`` for an open leaf.  ``greenfield`` marks a design
    obligation emitted by a bridging rule, closed by discharge rather than
    by further rules.  ``alternatives`` holds explored but unchosen sibling
    applications sharing this conclusion.  ``env_provisional`` notes that
    the environment is a placeholder pending an earlier stage's solution;
    it is resolved, and the premise rethreaded, once that stage commits.
    """

    conclusion: m.Problem
    rule: RuleId | None = None
    premises: tuple["DerivationNode", ...] = ()
    args: dict = field(default_factory=dict)
    justification: Justification = EMPTY_JUSTIFICATION
    plan: tuple[PlanStep, ...] = ()
    evidence: dict = field(default_factory=dict)
    validations: tuple[ValidationRecord, ...] = ()
    greenfield: bool = False
    discharged: bool = False
    env_provisional: bool = False
    marker: str | None = None
    alternatives: tuple["DerivationNode", ...] = ()


def open_node(problem: m.Problem) -> DerivationNode:
    return DerivationNode(conclusion=problem)


def get_node(root: DerivationNode, path: NodePath) -> DerivationNode:
    return _spine(root, path)[-1]


def _spine(root: DerivationNode, path: NodePath) -> list[DerivationNode]:
    """The nodes along ``path``, from ``root`` to the one it names."""
    spine = [root]
    for seg in path:
        node = spine[-1]
        if isinstance(seg, int):
            if seg >= len(node.premises):
                raise BadPath(f"no premise {seg} at {path_str(path)}", path)
            spine.append(node.premises[seg])
        else:
            index = seg[1] - 1
            if index < 0 or index >= len(node.alternatives):
                raise BadPath(f"no alternative {seg[1]} at {path_str(path)}", path)
            spine.append(node.alternatives[index])
    return spine


def _copy(node: DerivationNode, **fields) -> DerivationNode:
    """``replace(node, **fields)`` without the trip through ``__init__``;
    nodes hold no derived state, so copying the field dict is enough."""
    new = object.__new__(DerivationNode)
    new.__dict__.update(node.__dict__, **fields)
    return new


def set_node(root: DerivationNode, path: NodePath, new: DerivationNode) -> DerivationNode:
    if not path:
        return new
    seg = path[0]
    if isinstance(seg, int):
        if seg >= len(root.premises):
            raise BadPath(f"no premise {seg}", path)
        premises = list(root.premises)
        premises[seg] = set_node(premises[seg], path[1:], new)
        return replace(root, premises=tuple(premises))
    index = seg[1] - 1
    if index < 0 or index >= len(root.alternatives):
        raise BadPath(f"no alternative {seg[1]}", path)
    alts = list(root.alternatives)
    alts[index] = set_node(alts[index], path[1:], new)
    return replace(root, alternatives=tuple(alts))


# --- committed solutions ----------------------------------------------------------

def committed(node: DerivationNode) -> m.ChangeExpr | None:
    """The change expression this subtree commits to, or None while open.

    Greenfield obligations commit the identity change: their environment
    already contains the artefact whose internal design is out of scope.
    """
    if node.rule is None:
        return m.Nil() if node.greenfield else None
    if node.rule is RuleId.KNOWN_SOLUTION:
        return node.args.get("solution", node.conclusion.change)
    if node.rule in (RuleId.DOMAIN_ADD, RuleId.DOMAIN_REMOVE, RuleId.DOMAIN_REFINE):
        return node.conclusion.change
    if node.rule is RuleId.SEQUENCE:
        first = committed(node.premises[0])
        second = committed(node.premises[1])
        if first is None or second is None:
            return None
        return m.ChangeSeq(first, second)
    if node.rule is RuleId.PARALLEL:
        left = committed(node.premises[0])
        right = committed(node.premises[1])
        if left is None or right is None:
            return None
        return m.ChangePar(left, right)
    # single-premise rules pass their premise's solution through
    return committed(node.premises[0])


def solution_of(root: DerivationNode) -> m.ChangeExpr:
    """The fully determined change a solved derivation establishes."""
    change = committed(root)
    if change is None or not m.is_unknown_free(change):
        raise UnsolvedTree("derivation has open leaves; no solution to extract")
    return change


# --- premise computation ------------------------------------------------------------

@dataclass(frozen=True)
class _PremiseSpec:
    problem: m.Problem
    greenfield: bool = False
    provisional: bool = False


def _mirror_need_shape(need: m.Need, base: str, counter: list) -> m.ChangeExpr:
    if isinstance(need, m.AtomicNeed):
        counter[0] += 1
        return m.Unknown(f"{base}{counter[0]}")
    left = _mirror_need_shape(need.left, base, counter)
    right = _mirror_need_shape(need.right, base, counter)
    if isinstance(need, m.NeedSeq):
        return m.ChangeSeq(left, right)
    return m.ChangePar(left, right)


def _refine_pair(change: m.ChangeExpr):
    if (
        isinstance(change, m.ChangeSeq)
        and isinstance(change.first, m.Refine)
        and isinstance(change.second, m.Refine)
        and change.first.target == change.second.target
    ):
        return change.first, change.second
    return None


def _first_stage(node: DerivationNode) -> m.ChangeExpr | None:
    """The solution a Sequence's second stage is threaded through: its
    first stage's, once committed and fully determined.  None while the
    second stage's environment is provisional."""
    if node.env_provisional or not node.premises:
        return None
    first = committed(node.premises[0])
    return first if first is not None and m.is_unknown_free(first) else None


def _expected(node: DerivationNode, mdl: Model) -> tuple[list[_PremiseSpec], dict]:
    """Recompute the premises and evidence a rule application must have.

    Raises RuleError when the rule's side conditions do not hold for the
    node's conclusion and arguments.
    """
    problem = node.conclusion
    env, change, validator, need = (
        problem.env,
        problem.change,
        problem.validator,
        problem.need,
    )
    rule = node.rule
    args = node.args
    prov = node.env_provisional

    def same(change_=None, need_=None, env_=None, validator_=None, greenfield=False,
             provisional=None):
        return _PremiseSpec(
            m.Problem(
                env if env_ is None else env_,
                change if change_ is None else change_,
                validator if validator_ is None else validator_,
                need if need_ is None else need_,
            ),
            greenfield=greenfield,
            provisional=prov if provisional is None else provisional,
        )

    if rule is RuleId.DELEGATION:
        delegate = args.get("delegate")
        if not delegate:
            raise RuleError("Delegation needs a 'delegate' argument")
        try:
            owner = mdl.stakeholder(validator)
        except KeyError:
            raise RuleError(f"validator {validator!r} is not a declared stakeholder")
        if delegate not in owner.trusts:
            raise TrustMissing(f"no trust edge {validator} -> {delegate}")
        return [same(validator_=delegate)], {"trust": f"{validator}->{delegate}"}

    if rule is RuleId.KNOWN_SOLUTION:
        solution = args.get("solution", change)
        if not m.is_unknown_free(solution):
            missing = ", ".join(sorted(m.placeholders(solution)))
            raise SideConditionViolated(
                f"known solution still contains placeholders: {missing}"
            )
        return [], {"solution": change_str(solution)}

    if rule is RuleId.ENV_REFINE:
        new_env = args.get("env")
        if not isinstance(new_env, m.Environment):
            raise RuleError("EnvRefine needs an 'env' argument")
        return [same(env_=new_env, provisional=False)], {}

    if rule is RuleId.NEED_REFINE:
        new_need = args.get("need")
        if new_need is None:
            raise RuleError("NeedRefine needs a 'need' argument")
        return [same(need_=new_need)], {}

    if rule is RuleId.SOLN_REFINE:
        new_change = args.get("change")
        if new_change is None:
            raise RuleError("SolnRefine needs a 'change' argument")
        return [same(change_=new_change)], {}

    if rule is RuleId.SOLUTION_REFLECT:
        if not isinstance(change, m.Unknown):
            raise SideConditionViolated(
                "SolutionReflect introduces structure into an unsolved change; "
                f"found {change_str(change)}"
            )
        if isinstance(need, m.AtomicNeed):
            raise SideConditionViolated(
                "SolutionReflect needs a composite need to mirror"
            )
        shape = args.get("shape")
        top = "seq" if isinstance(need, m.NeedSeq) else "par"
        if shape is not None and shape != top:
            raise SideConditionViolated(
                f"need composes by {top!r}, not {shape!r}"
            )
        counter = [0]
        mirrored = _mirror_need_shape(need, change.placeholder, counter)
        return [same(change_=mirrored)], {"shape": top}

    if rule is RuleId.SEQUENCE:
        if not isinstance(change, m.ChangeSeq):
            raise SideConditionViolated(
                f"Sequence expects a sequenced change, found {change_str(change)}"
            )
        if not isinstance(need, m.NeedSeq):
            raise SideConditionViolated(
                f"Sequence expects a sequenced need, found {need_str(need)}"
            )
        first = same(change_=change.first, need_=need.left)
        # thread the second stage through the first stage's solution once known
        spec2_env, first_commit = env, _first_stage(node)
        if first_commit is not None:
            try:
                spec2_env = m.apply_change(env, first_commit)
            except (m.ChangeError, m.ModelError) as err:
                raise SideConditionViolated(
                    f"stage one's solution does not apply: {err}",
                    cause_kind=getattr(err, "kind", "ModelError"),
                )
        second = _PremiseSpec(
            m.Problem(spec2_env, change.second, validator, need.right),
            provisional=first_commit is None,
        )
        return [first, second], {"intermediate_env": env_str(spec2_env)}

    if rule is RuleId.PARALLEL:
        if not isinstance(need, m.NeedPar):
            raise SideConditionViolated(
                f"Parallel expects a parallel need, found {need_str(need)}"
            )
        left_names = args.get("left")
        right_names = args.get("right")
        if left_names is None or right_names is None:
            raise RuleError("Parallel needs 'left' and 'right' domain lists")
        names = set(env.names())
        left_set, right_set = set(left_names), set(right_names)
        if left_set & right_set:
            raise SideConditionViolated(
                "environment split overlaps: " + ", ".join(sorted(left_set & right_set))
            )
        if left_set | right_set != names:
            stray = (left_set | right_set) ^ names
            raise SideConditionViolated(
                "environment split must cover the environment exactly; "
                "mismatched: " + ", ".join(sorted(stray))
            )
        env1 = m.Environment(tuple(d for d in env if d.name in left_set))
        env2 = m.Environment(tuple(d for d in env if d.name in right_set))
        shared = m.shared_phenomena(env1, env2)
        if shared:
            raise SideConditionViolated(
                "the split contexts are not phenomenally disjoint; shared: "
                + ", ".join(sorted(shared)),
                shared=shared,
            )
        if isinstance(change, m.ChangePar):
            c1, c2 = change.left, change.right
        elif isinstance(change, m.Unknown):
            c1 = m.Unknown(f"{change.placeholder}1")
            c2 = m.Unknown(f"{change.placeholder}2")
        else:
            raise SideConditionViolated(
                f"Parallel expects a parallel or unsolved change, found {change_str(change)}"
            )
        return (
            [
                _PremiseSpec(m.Problem(env1, c1, validator, need.left), provisional=prov),
                _PremiseSpec(m.Problem(env2, c2, validator, need.right), provisional=prov),
            ],
            {"shared": sorted(shared), "left": sorted(left_set), "right": sorted(right_set)},
        )

    if rule in (RuleId.DOMAIN_ADD, RuleId.DOMAIN_REMOVE, RuleId.DOMAIN_REFINE):
        wanted = {
            RuleId.DOMAIN_ADD: m.Add,
            RuleId.DOMAIN_REMOVE: m.Cancel,
            RuleId.DOMAIN_REFINE: m.Refine,
        }[rule]
        if not isinstance(change, wanted):
            raise SideConditionViolated(
                f"{rule.value} expects a {wanted.__name__.lower()} atom, "
                f"found {change_str(change)}"
            )
        if prov:
            return [same(change_=m.Nil(), greenfield=True)], {}
        try:
            new_env = m.apply_change(env, change)
        except (m.ChangeError, m.ModelError) as err:
            raise SideConditionViolated(str(err), cause_kind=getattr(err, "kind", "ModelError"))
        return (
            [same(env_=new_env, change_=m.Nil(), greenfield=True)],
            {"installed_env": env_str(new_env)},
        )

    if rule is RuleId.SEQ_DOMAIN_REFINE_EQUIV:
        direction = args.get("direction")
        if direction == "fuse":
            pair = _refine_pair(change)
            if pair is None:
                raise SideConditionViolated(
                    "fusing needs two sequenced refinements of one domain; "
                    f"found {change_str(change)}"
                )
            rewritten: m.ChangeExpr = pair[1]
        elif direction == "split":
            if not isinstance(change, m.Refine):
                raise SideConditionViolated(
                    f"splitting needs a single refinement, found {change_str(change)}"
                )
            retained = args.get("retained")
            added = args.get("added")
            if retained is None or added is None:
                raise RuleError("splitting needs 'retained' and 'added' for the intermediate stage")
            rewritten = m.ChangeSeq(
                m.Refine(change.target, tuple(retained), tuple(added)), change
            )
        else:
            raise RuleError("SeqDomainRefineEquiv needs direction: fuse or split")
        if prov:
            raise SideConditionViolated(
                "cannot verify the rewrite: environment not yet determined"
            )
        try:
            before = m.apply_change(env, change)
            after = m.apply_change(env, rewritten)
        except (m.ChangeError, m.ModelError) as err:
            raise SideConditionViolated(str(err), cause_kind=getattr(err, "kind", "ModelError"))
        if before != after:
            raise SideConditionViolated(
                "rewrite is not a semantic no-op here: "
                f"{env_str(before)} vs {env_str(after)}"
            )
        return (
            [same(change_=rewritten)],
            {"before": change_str(change), "after": change_str(rewritten)},
        )

    raise RuleError(f"unknown rule {rule!r}")


# --- applying rules -------------------------------------------------------------

def apply(rule: RuleId, node: DerivationNode, args: dict, mdl: Model) -> DerivationNode:
    """Apply a rule at an open leaf, creating its premise leaves.

    The conclusion is left untouched; side conditions are verified and the
    computed evidence stored (as a cache; checking recomputes it).
    """
    if node.rule is not None:
        raise NotOpen(f"rule already applied here: {node.rule.value}")
    if node.greenfield:
        raise NotOpen("greenfield obligations are discharged, not derived")
    candidate = replace(node, rule=rule, args=dict(args))
    specs, evidence = _expected(candidate, mdl)
    if len(specs) != RULE_ARITY[rule]:
        raise ArityMismatch(f"{rule.value} must create {RULE_ARITY[rule]} premises")
    premises = tuple(
        DerivationNode(
            conclusion=s.problem, greenfield=s.greenfield, env_provisional=s.provisional
        )
        for s in specs
    )
    return replace(candidate, premises=premises, evidence=evidence)


def rethread(node: DerivationNode, mdl: Model) -> DerivationNode:
    """Recompute premise conclusions top-down over the whole subtree,
    grafting existing subtrees onto them.  Resolves provisional
    environments once earlier stages have committed their solutions.

    :func:`build` calls it only on a second stage whose environment has
    just been resolved, and otherwise rebuilds just the path each
    statement names (see :func:`_graft`)."""
    alts = tuple(rethread(a, mdl) for a in node.alternatives)
    if node.rule is None:
        return replace(node, alternatives=alts) if alts != node.alternatives else node
    specs, evidence = _expected(node, mdl)
    premises = []
    for child, spec in zip(node.premises, specs):
        child = replace(
            child,
            conclusion=spec.problem,
            greenfield=spec.greenfield,
            env_provisional=spec.provisional,
        )
        premises.append(rethread(child, mdl))
    # threading may now be determined where it was not before
    out = replace(node, premises=tuple(premises), evidence=evidence, alternatives=alts)
    if out.rule is RuleId.SEQUENCE and out.premises[1].env_provisional:
        specs2, evidence2 = _expected(out, mdl)
        if not specs2[1].provisional:
            second = replace(
                out.premises[1],
                conclusion=specs2[1].problem,
                env_provisional=False,
            )
            out = replace(
                out,
                premises=(out.premises[0], rethread(second, mdl)),
                evidence=evidence2,
            )
    return out


# --- building trees from scripts ----------------------------------------------------

def _awaits_first_stage(node: DerivationNode, seg) -> bool:
    """Whether ``seg`` leads into the first stage of a Sequence whose
    second stage still waits for it."""
    return seg == 0 and node.rule is RuleId.SEQUENCE and node.premises[1].env_provisional


def _graft(spine: list[DerivationNode], path: NodePath, new: DerivationNode, mdl: Model) -> DerivationNode:
    """``rethread(set_node(spine[0], path, new))``, rebuilding only the
    ``spine`` of nodes along ``path``, for a root that is already
    rethreaded and the ``new`` node a statement made from the one at
    ``path``.

    A premise's conclusion depends only on its parent's conclusion, rule
    and arguments, and, in a Sequence, on the first stage's committed
    solution.  A statement changes none of these for the nodes on its
    path, so they keep their conclusions and evidence, and every subtree
    off the path is reused as it is.  What a statement can change is the
    commitment of a first stage it lies in: when that resolves the second
    stage's provisional environment, the second stage is rethreaded in
    full.
    """
    target = new
    for depth in reversed(range(len(path))):
        node, seg = spine[depth], path[depth]
        if not isinstance(seg, int):
            alts = list(node.alternatives)
            alts[seg[1] - 1] = new
            new = _copy(node, alternatives=tuple(alts))
            continue
        premises = list(node.premises)
        premises[seg] = new
        new = _copy(node, premises=tuple(premises))
        if _awaits_first_stage(node, seg) and _first_stage(new) is not None:
            try:
                specs, evidence = _expected(new, mdl)
                second = _copy(premises[1], conclusion=specs[1].problem, env_provisional=False)
                new = _copy(new, premises=(premises[0], rethread(second, mdl)), evidence=evidence)
            except RuleError:
                _check_enclosing(spine[:depth], path, target, mdl)
                raise
    return new


def _check_enclosing(spine: list[DerivationNode], path: NodePath, new: DerivationNode, mdl: Model) -> None:
    """Raise the error of the outermost Sequence in ``spine`` whose first
    stage, with ``new`` set at ``path``, has just committed to a solution
    that does not apply: rethread checks a Sequence before any node in
    its first stage, so that error comes before one found below."""
    for depth, node in enumerate(spine):
        if _awaits_first_stage(node, path[depth]):
            first = set_node(node.premises[0], path[depth + 1:], new)
            _expected(_copy(node, premises=(first, node.premises[1])), mdl)


def build(script: DerivationScript, mdl: Model, problems: dict) -> DerivationNode:
    """Execute a derivation script statement by statement.

    Each statement's rule application, alternative or discharge is made at
    the node its path names and grafted back in by :func:`_graft`, which
    rebuilds that path and nothing else unless the statement commits a
    first stage.  The tree equals the one rethreading the whole derivation
    after every statement would give, and so does the first error.
    """
    if script.problem_name not in problems:
        raise RuleError(f"derivation {script.name!r} names unknown problem {script.problem_name!r}")
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        try:
            spine = _spine(root, stmt.path)
        except BadPath as err:
            raise err.at(stmt.path)
        if isinstance(stmt, ApplyStatement):
            updated = _run_apply(stmt, spine[-1], mdl, index)
        else:
            updated = _run_discharge(stmt, spine[-1], index)
        try:
            root = _graft(spine, stmt.path, updated, mdl)
        except RuleError as err:
            if not err.path:
                err.at(stmt.path)
            raise
    return root


def _attach_marks(node: DerivationNode, stmt, index: int, target: ValidationTarget) -> DerivationNode:
    records = []
    for k, mark in enumerate(stmt.validations):
        records.append(
            ValidationRecord(
                id=f"s{index}v{k}",
                stakeholder=mark.stakeholder,
                target=target,
                subject=path_str(stmt.path),
                status=ValidationStatus.GRANTED if mark.granted else ValidationStatus.REJECTED,
                sequence=index,
            )
        )
    return replace(
        node,
        justification=stmt.justification or node.justification,
        plan=node.plan + getattr(stmt, "plan", ()),
        validations=node.validations + tuple(records),
    )


def _run_apply(stmt: ApplyStatement, target: DerivationNode, mdl: Model, index: int) -> DerivationNode:
    if stmt.marker == "alternative":
        base = open_node(target.conclusion)
        base = replace(base, greenfield=target.greenfield, env_provisional=target.env_provisional)
        try:
            applied = apply(stmt.rule, base, stmt.args, mdl)
        except RuleError as err:
            raise err.at(stmt.path)
        applied = replace(applied, marker="alternative")
        applied = _attach_marks(applied, stmt, index, ValidationTarget.SOLUTION_PLAN)
        return replace(target, alternatives=target.alternatives + (applied,))
    try:
        applied = apply(stmt.rule, target, stmt.args, mdl)
    except RuleError as err:
        raise err.at(stmt.path)
    applied = replace(applied, marker=stmt.marker)
    return _attach_marks(applied, stmt, index, ValidationTarget.SOLUTION_PLAN)


def _run_discharge(stmt: DischargeStatement, target: DerivationNode, index: int) -> DerivationNode:
    if not target.greenfield:
        raise NotOpen(
            "only greenfield obligations can be discharged", stmt.path
        )
    if target.discharged:
        raise NotOpen("obligation already discharged", stmt.path)
    updated = replace(target, discharged=True)
    return _attach_marks(updated, stmt, index, ValidationTarget.GREENFIELD_DISCHARGE)


# --- lint: justification profiles and plan fragments ----------------------------------

_REQUIRED_J: dict[RuleId, tuple[str, ...]] = {
    RuleId.DELEGATION: ("coordination_rationale", "validation_criteria"),
    RuleId.SEQUENCE: ("dependency_argument", "timeline_rationale"),
    RuleId.PARALLEL: ("dependency_argument",),
}


@dataclass(frozen=True)
class CheckDiagnostic:
    path: str
    kind: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.kind}: {self.message}"


def _subtree_steps(node: DerivationNode) -> list[PlanStep]:
    steps = list(node.plan)
    for child in node.premises:
        steps.extend(_subtree_steps(child))
    return steps


def lint(root: DerivationNode) -> list[CheckDiagnostic]:
    """Justification-profile and plan-fragment checks, without replay."""
    diagnostics: list[CheckDiagnostic] = []
    all_steps: dict[str, str] = {}

    def collect(node: DerivationNode, path: NodePath):
        for step in node.plan:
            if step.id in all_steps:
                diagnostics.append(
                    CheckDiagnostic(
                        path_str(path), "DuplicateStep",
                        f"step id {step.id!r} already used at {all_steps[step.id]}",
                    )
                )
            else:
                all_steps[step.id] = path_str(path)
        for i, child in enumerate(node.premises):
            collect(child, path + (i,))
        for k, alt in enumerate(node.alternatives):
            collect(alt, path + (("alt", k + 1),))

    collect(root, ())

    def walk(node: DerivationNode, path: NodePath):
        where = path_str(path)
        if node.rule is not None:
            if not node.justification.rule_rationale:
                diagnostics.append(
                    CheckDiagnostic(where, "MissingJustification", "ruleRationale is required")
                )
            for fld in _REQUIRED_J.get(node.rule, ()):
                if not getattr(node.justification, fld):
                    diagnostics.append(
                        CheckDiagnostic(
                            where, "MissingJustification",
                            f"{fld} is required for {node.rule.value}",
                        )
                    )
        if len(node.plan) >= 2 and not node.justification.risk_register:
            diagnostics.append(
                CheckDiagnostic(
                    where, "MissingJustification",
                    "a risk register is required for plan fragments of two or more steps",
                )
            )
        for step in node.plan:
            for ref in step.after + step.parallel_ok:
                if ref not in all_steps:
                    diagnostics.append(
                        CheckDiagnostic(
                            where, "UnknownStep",
                            f"step {step.id!r} references unknown step {ref!r}",
                        )
                    )
        if node.rule is RuleId.SEQUENCE:
            first = {s.id for s in _subtree_steps(node.premises[0])}
            second_steps = _subtree_steps(node.premises[1])
            second = {s.id for s in second_steps}
            if first and second:
                ordered = any(ref in first for s in second_steps for ref in s.after)
                if not ordered:
                    diagnostics.append(
                        CheckDiagnostic(
                            where, "MissingConstraint",
                            "sequenced stages must carry an 'after' constraint "
                            "from the second stage onto the first",
                        )
                    )
                crossing = [
                    (s.id, ref)
                    for s in _subtree_steps(node)
                    for ref in s.parallel_ok
                    if (s.id in first and ref in second) or (s.id in second and ref in first)
                ]
                if crossing:
                    a, b = crossing[0]
                    diagnostics.append(
                        CheckDiagnostic(
                            where, "ConflictingConstraint",
                            f"steps {a!r} and {b!r} are in different stages and cannot "
                            "be marked parallel_ok",
                        )
                    )
        if node.rule is RuleId.PARALLEL:
            first = {s.id for s in _subtree_steps(node.premises[0])}
            second = {s.id for s in _subtree_steps(node.premises[1])}
            if first and second:
                marked = any(
                    (s.id in first and ref in second) or (s.id in second and ref in first)
                    for s in _subtree_steps(node)
                    for ref in s.parallel_ok
                )
                if not marked:
                    diagnostics.append(
                        CheckDiagnostic(
                            where, "MissingConstraint",
                            "parallel branches must mark cross-branch steps parallel_ok",
                        )
                    )
        for i, child in enumerate(node.premises):
            walk(child, path + (i,))
        for k, alt in enumerate(node.alternatives):
            walk(alt, path + (("alt", k + 1),))

    walk(root, ())
    return diagnostics


# --- checking --------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    kind: str  # Solved | Incomplete | Invalid
    diagnostics: tuple[CheckDiagnostic, ...] = ()
    open_items: tuple[str, ...] = ()

    @property
    def solved(self) -> bool:
        return self.kind == "Solved"


def _granted_by(node: DerivationNode, stakeholder: str, target: ValidationTarget) -> bool:
    return any(
        v.status is ValidationStatus.GRANTED
        and v.stakeholder == stakeholder
        and v.target is target
        for v in node.validations
    )


def check(root: DerivationNode, mdl: Model) -> Verdict:
    """Replay a derivation bottom-up against the model.

    Every side condition is recomputed and every stored premise compared
    with the one the rule would create; sequencing environments are
    rethreaded through apply_change, never trusted from the tree.
    """
    diagnostics: list[CheckDiagnostic] = []
    open_items: list[str] = []

    def note(path, kind, message):
        diagnostics.append(CheckDiagnostic(path_str(path), kind, message))

    def walk(node: DerivationNode, path: NodePath, in_alternative: bool):
        where = path_str(path)
        for k, alt in enumerate(node.alternatives):
            if alt.conclusion != node.conclusion:
                note(path + (("alt", k + 1),), "PremiseMismatch",
                     "alternative does not share the node's conclusion")
            walk(alt, path + (("alt", k + 1),), True)
        if node.alternatives and not in_alternative:
            if node.rule is not None and node.marker != "chosen":
                open_items.append(
                    f"{where}: alternatives exist but none is marked chosen"
                )
            if any(a.marker == "chosen" for a in node.alternatives):
                note(path, "AmbiguousChoice",
                     "a chosen application must occupy the node itself, "
                     "not sit among the alternatives")
        if node.rule is None:
            if node.greenfield:
                if not node.discharged:
                    if not in_alternative:
                        open_items.append(f"{where}: greenfield obligation awaiting discharge")
                else:
                    _check_validation(node, path, ValidationTarget.GREENFIELD_DISCHARGE)
            else:
                if not in_alternative:
                    open_items.append(f"{where}: open leaf")
            return
        if len(node.premises) != RULE_ARITY[node.rule]:
            note(path, "ArityMismatch",
                 f"{node.rule.value} carries {len(node.premises)} premises, "
                 f"needs {RULE_ARITY[node.rule]}")
            return
        try:
            specs, _ = _expected(node, mdl)
        except RuleError as err:
            note(path, err.cause_kind or err.kind, str(err))
            return
        for i, (child, spec) in enumerate(zip(node.premises, specs)):
            if spec.provisional or child.env_provisional:
                # environment pending an earlier stage; compare the rest
                stored = replace(child.conclusion, env=spec.problem.env)
                if stored != spec.problem:
                    note(path + (i,), "PremiseMismatch",
                         "stored premise disagrees with the rule application")
            elif child.conclusion != spec.problem:
                if child.conclusion.env != spec.problem.env:
                    note(path + (i,), "ThreadingMismatch",
                         "environment threading mismatch: expected "
                         f"{env_str(spec.problem.env)}, stored {env_str(child.conclusion.env)}")
                else:
                    note(path + (i,), "PremiseMismatch",
                         "stored premise disagrees with the rule application")
            if child.greenfield != spec.greenfield:
                note(path + (i,), "PremiseMismatch",
                     "greenfield marking disagrees with the rule")
        if node.rule is RuleId.KNOWN_SOLUTION:
            _check_validation(node, path, ValidationTarget.SOLUTION_PLAN)
            if not node.env_provisional:
                solution = node.args.get("solution", node.conclusion.change)
                try:
                    m.apply_change(node.conclusion.env, solution)
                except (m.ChangeError, m.ModelError) as err:
                    note(path, getattr(err, "kind", "ModelError"), str(err))
        for i, child in enumerate(node.premises):
            walk(child, path + (i,), in_alternative)

    def _check_validation(node, path, target):
        validator = node.conclusion.validator
        granted = [v for v in node.validations if v.status is ValidationStatus.GRANTED]
        wrong = [v for v in granted if v.stakeholder != validator]
        if wrong:
            note(path, "WrongValidator",
                 f"validation granted by {wrong[0].stakeholder!r}; "
                 f"only {validator!r} may validate this problem")
        if not _granted_by(node, validator, target):
            what = ("greenfield discharge" if target is ValidationTarget.GREENFIELD_DISCHARGE
                    else "solution")
            note(path, "MissingValidation",
                 f"{what} lacks a granted validation by {validator!r}")

    walk(root, (), False)
    diagnostics.extend(lint(root))
    if diagnostics:
        return Verdict("Invalid", tuple(diagnostics), tuple(open_items))
    if open_items:
        return Verdict("Incomplete", (), tuple(open_items))
    return Verdict("Solved")


# --- plan extraction ----------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    step: PlanStep
    stage: int
    node: str


@dataclass(frozen=True)
class ImplementationPlan:
    entries: tuple[PlanEntry, ...]
    constraints: frozenset  # ("after" | "parallel_ok", step, other)

    def step_ids(self) -> tuple[str, ...]:
        return tuple(e.step.id for e in self.entries)


def extract_plan(root: DerivationNode) -> ImplementationPlan:
    """Collect plan fragments depth-first and order them.

    Sequencing imposes delivery-order constraints between its stages
    (design work may overlap; delivery may not).  The result is a
    deterministic topological order, ties broken by stage then step id.
    """
    if committed(root) is None or not m.is_unknown_free(committed(root)):
        raise UnsolvedTree("cannot extract a plan from an unsolved derivation")

    entries: list[PlanEntry] = []
    constraints: set[tuple[str, str, str]] = set()

    def walk(node: DerivationNode, stage: int, path: NodePath):
        for step in node.plan:
            entries.append(PlanEntry(step, stage, path_str(path)))
            for ref in step.after:
                constraints.add(("after", step.id, ref))
            for ref in step.parallel_ok:
                constraints.add(("parallel_ok", step.id, ref))
        if node.rule is RuleId.SEQUENCE:
            first_steps = [s.id for s in _subtree_steps(node.premises[0])]
            second_steps = [s.id for s in _subtree_steps(node.premises[1])]
            for later in second_steps:
                for earlier in first_steps:
                    constraints.add(("after", later, earlier))
            walk(node.premises[0], stage, path + (0,))
            walk(node.premises[1], stage + 1, path + (1,))
            return
        for i, child in enumerate(node.premises):
            walk(child, stage, path + (i,))

    walk(root, 0, ())
    by_id = {e.step.id: e for e in entries}
    unknown = [c for c in constraints if c[1] not in by_id or c[2] not in by_id]
    if unknown:
        kind, a, b = unknown[0]
        raise UnsolvedTree(f"constraint references unknown step: {a!r} {kind} {b!r}")

    successors: dict[str, list[str]] = {e.step.id: [] for e in entries}
    indegree = {e.step.id: 0 for e in entries}
    for kind, later, earlier in constraints:
        if kind != "after":
            continue
        successors[earlier].append(later)
        indegree[later] += 1
    ready = [
        ((by_id[sid].stage, sid), sid) for sid in indegree if indegree[sid] == 0
    ]
    heapq.heapify(ready)
    ordered: list[str] = []
    while ready:
        _, sid = heapq.heappop(ready)
        ordered.append(sid)
        for nxt in successors[sid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, ((by_id[nxt].stage, nxt), nxt))
    if len(ordered) != len(entries):
        raise CycleDetected(set(indegree) - set(ordered))
    return ImplementationPlan(
        tuple(by_id[sid] for sid in ordered), frozenset(constraints)
    )


# --- tangles -----------------------------------------------------------------------

@dataclass(frozen=True)
class TanglePair:
    first: int
    second: int
    domains: frozenset[str]
    placeholders: frozenset[str]
    validators: frozenset[str]
    phenomena: frozenset[str]

    @property
    def tangled(self) -> bool:
        return bool(self.domains or self.placeholders or self.validators or self.phenomena)

    def shared_symbols(self) -> frozenset[str]:
        return self.domains | self.placeholders | self.validators


def tangles(problems: list[m.Problem]) -> tuple[TanglePair, ...]:
    """Pairwise shared symbols between problems.

    A pair sharing domains, placeholders, validators or environment
    phenomena is tangled: its solutions must be co-designed, not found
    independently."""
    if len(problems) < 2:
        raise ValueError("tangle analysis needs at least two problems")

    def signature(p: m.Problem):
        domains = frozenset(p.env.names()) | m.referenced_domains(p.change)
        return domains, m.placeholders(p.change), frozenset({p.validator})

    sigs = [signature(p) for p in problems]
    out = []
    for i in range(len(problems)):
        for j in range(i + 1, len(problems)):
            di, pi, vi = sigs[i]
            dj, pj, vj = sigs[j]
            out.append(
                TanglePair(
                    i,
                    j,
                    di & dj,
                    pi & pj,
                    vi & vj,
                    m.shared_phenomena(problems[i].env, problems[j].env),
                )
            )
    return tuple(out)


# --- helpers used by acceptance and the CLI -------------------------------------------

def discharge_environments(root: DerivationNode) -> tuple[m.Environment, ...]:
    """Environments of the greenfield obligations, in derivation order."""
    out: list[m.Environment] = []

    def walk(node: DerivationNode):
        if node.greenfield and node.rule is None:
            out.append(node.conclusion.env)
        for child in node.premises:
            walk(child)

    walk(root)
    return tuple(out)


def seq_refine_equiv(
    env: m.Environment,
    change: m.ChangeExpr,
    direction: str,
    retained: tuple[m.Domain, ...] = (),
    added: tuple[m.Domain, ...] = (),
) -> m.ChangeExpr:
    """Rewrite between a chain of two refinements of one domain and the
    single refinement that lands the same architecture.  The rewrite must
    leave apply_change results structurally equal, which is verified."""
    probe = DerivationNode(
        conclusion=m.Problem(env, change, "_", m.AtomicNeed("_")),
        rule=RuleId.SEQ_DOMAIN_REFINE_EQUIV,
        args={"direction": direction, "retained": retained, "added": added},
    )
    specs, _ = _expected(probe, Model())
    return specs[0].problem.change
