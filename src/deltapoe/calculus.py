"""The derivation engine.

A derivation is a tree of rule applications over change problems.  Rule
applications are constructed through :func:`apply`, which enforces each
rule's side conditions and creates the premise problems; scripts drive
the same machinery through :func:`build`, which assembles its tree in
place and changes no tree once it has returned it.  :func:`check`
replays a whole tree from its root conclusion, recomputing every premise
and side condition rather than trusting what the tree (or file) claims,
then verifies justification profiles, plan-fragment constraints and
validation gates.  Solved trees yield an implementation plan
(:func:`extract_plan`) and a fully determined change expression
(:func:`solution_of`).  What a rule means, its arity, premises and side
conditions, evidence and required justification fields, is its one entry
of :data:`RULES`, which each of these passes reads.

The passes that only read a tree (:func:`lint`, plan extraction,
:func:`discharge_environments`, the DOT export) share one stack-based
walk, :func:`preorder`, so they take a tree of any depth.

Premises created by the three bridging rules (domain addition, removal,
refinement) are design obligations for a separate greenfield process;
they are not derived further here, only discharged against a granted
validation from the problem's validator.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import model as m
from .artifacts import (
    EMPTY_JUSTIFICATION,
    Justification,
    PlanStep,
    Record,
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

    def __init__(self, message: str, path: NodePath = (), cause_kind: str | None = None):
        super().__init__(message)
        self.path = path
        self.cause_kind = cause_kind

    @property
    def kind(self) -> str:
        return type(self).__name__

    def at(self, path: NodePath) -> "RuleError":
        self.path = path
        return self


class SideConditionViolated(RuleError):
    def __init__(self, message, path=(), cause_kind=None, shared=frozenset()):
        super().__init__(message, path, cause_kind)
        self.shared = shared


class TrustMissing(RuleError):
    """A delegation to a party the validator does not trust."""


class NotOpen(RuleError):
    """A rule or discharge at a node that is not open to it."""


class BadPath(RuleError):
    """A node path that names no node of the tree."""


class UnsolvedTree(Exception):
    pass


class CycleDetected(Exception):
    def __init__(self, stuck):
        super().__init__(f"plan constraints form a cycle over: {', '.join(sorted(stuck))}")
        self.stuck = tuple(sorted(stuck))


# --- derivation nodes ----------------------------------------------------------

class DerivationNode(Record):
    """One step of a derivation.

    ``rule`` is ``None`` for an open leaf.  ``greenfield`` marks a design
    obligation emitted by a bridging rule, closed by discharge rather than
    by further rules.  ``alternatives`` holds explored but unchosen sibling
    applications sharing this conclusion.  ``env_provisional`` notes that
    the environment is a placeholder pending an earlier stage's solution;
    it is resolved, and the premise rethreaded, once that stage commits.
    Nothing derived is stored: :func:`evidence` renders what a rule
    application establishes from the node when it is asked for.

    :func:`build` puts premises and alternatives into the nodes it has
    made and not yet returned, so nodes are unhashable.
    """

    __slots__ = ("conclusion", "rule", "premises", "args", "justification", "plan",
                 "validations", "greenfield", "discharged", "env_provisional", "marker",
                 "alternatives")
    __hash__ = None

    def __init__(
        self,
        conclusion: m.Problem,
        rule: RuleId | None = None,
        premises: tuple[DerivationNode, ...] = (),
        args: dict | None = None,  # a fresh dict when not given
        justification: Justification = EMPTY_JUSTIFICATION,
        plan: tuple[PlanStep, ...] = (),
        validations: tuple[ValidationRecord, ...] = (),
        greenfield: bool = False,
        discharged: bool = False,
        env_provisional: bool = False,
        marker: str | None = None,
        alternatives: tuple[DerivationNode, ...] = (),
    ):
        self.conclusion = conclusion
        self.rule = rule
        self.premises = premises
        self.args = {} if args is None else args
        self.justification = justification
        self.plan = plan
        self.validations = validations
        self.greenfield = greenfield
        self.discharged = discharged
        self.env_provisional = env_provisional
        self.marker = marker
        self.alternatives = alternatives


def open_node(problem: m.Problem) -> DerivationNode:
    return DerivationNode(conclusion=problem)


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


def _put(node: DerivationNode, seg, child: DerivationNode) -> None:
    """Set ``child`` in ``node`` as the premise or alternative that the
    path segment ``seg`` names."""
    if isinstance(seg, int):
        node.premises = node.premises[:seg] + (child,) + node.premises[seg + 1:]
    else:
        alts = list(node.alternatives)
        alts[seg[1] - 1] = child
        node.alternatives = tuple(alts)


# --- walking a tree -----------------------------------------------------------------

def preorder(root: DerivationNode) -> Iterator[tuple[DerivationNode, NodePath, bool]]:
    """Each node of the tree with its path and whether it lies in an
    alternative, in pre-order with a node's premises before its
    alternatives.  The walk keeps its own stack, so it takes a tree of
    any depth; a node object that sits at two places is visited twice."""
    stack = [(root, (), False)]
    while stack:
        visit = stack.pop()
        yield visit
        node, path, in_alternative = visit
        for k in range(len(node.alternatives), 0, -1):
            stack.append((node.alternatives[k - 1], path + (("alt", k),), True))
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], path + (i,), in_alternative))


# --- committed solutions ----------------------------------------------------------

def committed(node: DerivationNode) -> m.ChangeExpr | None:
    """The change expression this subtree commits to, or None while open
    or while a node carries another number of premises than its rule makes.

    Greenfield obligations commit the identity change: their environment
    already contains the artefact whose internal design is out of scope.
    The walk keeps its own stack of nodes still to read and of Sequence
    and Parallel combinators whose two premises' solutions are found, so
    a tree of any depth commits.
    """
    found: list[m.ChangeExpr | None] = []
    todo: list = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, type):
            second, first = found.pop(), found.pop()
            found.append(None if first is None or second is None else item(first, second))
        elif item.rule is None:
            found.append(m.Nil() if item.greenfield else None)
        elif item.rule not in RULES or len(item.premises) != RULES[item.rule].arity:
            found.append(None)
        elif item.rule is RuleId.KNOWN_SOLUTION:
            found.append(item.args.get("solution", item.conclusion.change))
        elif item.rule in (RuleId.DOMAIN_ADD, RuleId.DOMAIN_REMOVE, RuleId.DOMAIN_REFINE):
            found.append(item.conclusion.change)
        elif item.rule in (RuleId.SEQUENCE, RuleId.PARALLEL):
            combine = m.ChangeSeq if item.rule is RuleId.SEQUENCE else m.ChangePar
            todo += (combine, item.premises[1], item.premises[0])
        else:  # single-premise rules pass their premise's solution through
            todo.append(item.premises[0])
    return found[0]


def solution_of(root: DerivationNode) -> m.ChangeExpr:
    """The fully determined change a solved derivation establishes."""
    change = committed(root)
    if change is None or not m.is_unknown_free(change):
        raise UnsolvedTree("derivation has open leaves; no solution to extract")
    return change


# --- premise computation ------------------------------------------------------------

def _mirror_need_shape(need: m.Need, base: str) -> m.ChangeExpr:
    """The change of ``need``'s shape whose k-th atomic need from the left
    becomes the placeholder ``?{base}{k}``.  The walk keeps its own stack
    of needs still to mirror and of combinators whose two operands are
    built, so a need of any length mirrors."""
    built: list[m.ChangeExpr] = []
    todo: list = [need]
    count = 0
    while todo:
        item = todo.pop()
        if isinstance(item, m.AtomicNeed):
            count += 1
            built.append(m.Unknown(f"{base}{count}"))
        elif isinstance(item, type):
            right = built.pop()
            built.append(item(built.pop(), right))
        else:
            todo += (m.ChangeSeq if isinstance(item, m.NeedSeq) else m.ChangePar, item.right, item.left)
    return built[0]


def _first_stage(node: DerivationNode) -> m.ChangeExpr | None:
    """The solution a Sequence's second stage is threaded through: its
    first stage's, once committed and fully determined.  None while the
    second stage's environment is provisional."""
    if node.env_provisional or not node.premises:
        return None
    first = committed(node.premises[0])
    return first if first is not None and m.is_unknown_free(first) else None


def _leaf(node: DerivationNode, env=None, change=None, validator=None, need=None,
          greenfield=False, provisional=None) -> DerivationNode:
    """An open leaf whose problem is ``node``'s conclusion with the given
    parts in place of its own, and whose environment is provisional as
    ``node``'s is unless ``provisional`` says otherwise."""
    problem = node.conclusion
    return DerivationNode(
        m.Problem(
            problem.env if env is None else env,
            problem.change if change is None else change,
            problem.validator if validator is None else validator,
            problem.need if need is None else need,
        ),
        greenfield=greenfield,
        env_provisional=node.env_provisional if provisional is None else provisional,
    )


# --- the rules ----------------------------------------------------------------------
#
# Each rule's premises function returns the premises an application at the
# node must have, as open leaves, and raises RuleError when a side condition
# does not hold for the node's conclusion and arguments.

def _delegation(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    delegate, validator = node.args.get("delegate"), node.conclusion.validator
    if not delegate:
        raise RuleError("Delegation needs a 'delegate' argument")
    try:
        owner = mdl.stakeholder(validator)
    except KeyError:
        raise RuleError(f"validator {validator!r} is not a declared stakeholder")
    if delegate not in owner.trusts:
        raise TrustMissing(f"no trust edge {validator} -> {delegate}")
    return [_leaf(node, validator=delegate)]


def _known_solution(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    solution = node.args.get("solution", node.conclusion.change)
    if not m.is_unknown_free(solution):
        missing = ", ".join(sorted(m.placeholders(solution)))
        raise SideConditionViolated(f"known solution still contains placeholders: {missing}")
    return []


def _env_refine(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    new_env = node.args.get("env")
    if not isinstance(new_env, m.Environment):
        raise RuleError("EnvRefine needs an 'env' argument")
    return [_leaf(node, env=new_env, provisional=False)]


def _need_refine(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    new_need = node.args.get("need")
    if new_need is None:
        raise RuleError("NeedRefine needs a 'need' argument")
    return [_leaf(node, need=new_need)]


def _soln_refine(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    new_change = node.args.get("change")
    if new_change is None:
        raise RuleError("SolnRefine needs a 'change' argument")
    return [_leaf(node, change=new_change)]


def _solution_reflect(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    change, need = node.conclusion.change, node.conclusion.need
    if not isinstance(change, m.Unknown):
        raise SideConditionViolated(
            f"SolutionReflect introduces structure into an unsolved change; found {change_str(change)}"
        )
    if isinstance(need, m.AtomicNeed):
        raise SideConditionViolated("SolutionReflect needs a composite need to mirror")
    shape = node.args.get("shape")
    top = "seq" if isinstance(need, m.NeedSeq) else "par"
    if shape is not None and shape != top:
        raise SideConditionViolated(f"need composes by {top!r}, not {shape!r}")
    return [_leaf(node, change=_mirror_need_shape(need, change.placeholder))]


def _applied(env: m.Environment, change: m.ChangeExpr, context: str = "") -> m.Environment:
    """``change`` applied to ``env``; a change that does not apply is a
    violated side condition, its message led by ``context``."""
    try:
        return m.apply_change(env, change)
    except (m.ChangeError, m.ModelError) as err:
        raise SideConditionViolated(f"{context}{err}", cause_kind=type(err).__name__)


def _sequence(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    env, change, need = node.conclusion.env, node.conclusion.change, node.conclusion.need
    if not isinstance(change, m.ChangeSeq):
        raise SideConditionViolated(f"Sequence expects a sequenced change, found {change_str(change)}")
    if not isinstance(need, m.NeedSeq):
        raise SideConditionViolated(f"Sequence expects a sequenced need, found {need_str(need)}")
    # thread the second stage through the first stage's solution once known
    first = _first_stage(node)
    if first is not None:
        env = _applied(env, first, "stage one's solution does not apply: ")
    return [
        _leaf(node, change=change.first, need=need.left),
        _leaf(node, env=env, change=change.second, need=need.right, provisional=first is None),
    ]


def _parallel(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    env, change, need = node.conclusion.env, node.conclusion.change, node.conclusion.need
    if not isinstance(need, m.NeedPar):
        raise SideConditionViolated(f"Parallel expects a parallel need, found {need_str(need)}")
    left, right = node.args.get("left"), node.args.get("right")
    if left is None or right is None:
        raise RuleError("Parallel needs 'left' and 'right' domain lists")
    left, right, names = set(left), set(right), set(env.names())
    if left & right:
        raise SideConditionViolated("environment split overlaps: " + ", ".join(sorted(left & right)))
    if left | right != names:
        raise SideConditionViolated("environment split must cover the environment exactly; "
                                    "mismatched: " + ", ".join(sorted((left | right) ^ names)))
    env1 = m.Environment(tuple(d for d in env if d.name in left))
    env2 = m.Environment(tuple(d for d in env if d.name in right))
    shared = m.shared_phenomena(env1, env2)
    if shared:
        raise SideConditionViolated(
            "the split contexts are not phenomenally disjoint; shared: " + ", ".join(sorted(shared)),
            shared=shared,
        )
    if isinstance(change, m.ChangePar):
        c1, c2 = change.left, change.right
    elif isinstance(change, m.Unknown):
        c1, c2 = m.Unknown(f"{change.placeholder}1"), m.Unknown(f"{change.placeholder}2")
    else:
        raise SideConditionViolated(
            f"Parallel expects a parallel or unsolved change, found {change_str(change)}"
        )
    return [
        _leaf(node, env=env1, change=c1, need=need.left),
        _leaf(node, env=env2, change=c2, need=need.right),
    ]


def _bridging(atom: type):
    """The premises function of the domain rule whose change is one
    ``atom``: a greenfield obligation in the environment the atom
    installs, or in the node's own while that is provisional."""
    name = atom.__name__.lower()
    expected = f"{'an' if name[0] in 'aeiou' else 'a'} {name} atom"

    def premises(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
        env, change = node.conclusion.env, node.conclusion.change
        if not isinstance(change, atom):
            raise SideConditionViolated(f"{node.rule.value} expects {expected}, found {change_str(change)}")
        if node.env_provisional:
            return [_leaf(node, change=m.Nil(), greenfield=True)]
        return [_leaf(node, env=_applied(env, change), change=m.Nil(), greenfield=True)]

    return premises


def _seq_domain_refine_equiv(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    env, change = node.conclusion.env, node.conclusion.change
    direction = node.args.get("direction")
    if direction == "fuse":
        if not (isinstance(change, m.ChangeSeq) and isinstance(change.first, m.Refine)
                and isinstance(change.second, m.Refine) and change.first.target == change.second.target):
            raise SideConditionViolated(
                f"fusing needs two sequenced refinements of one domain; found {change_str(change)}"
            )
        rewritten: m.ChangeExpr = change.second
    elif direction == "split":
        if not isinstance(change, m.Refine):
            raise SideConditionViolated(f"splitting needs a single refinement, found {change_str(change)}")
        retained, added = node.args.get("retained"), node.args.get("added")
        if retained is None or added is None:
            raise RuleError("splitting needs 'retained' and 'added' for the intermediate stage")
        rewritten = m.ChangeSeq(m.Refine(change.target, tuple(retained), tuple(added)), change)
    else:
        raise RuleError("SeqDomainRefineEquiv needs direction: fuse or split")
    if node.env_provisional:
        raise SideConditionViolated("cannot verify the rewrite: environment not yet determined")
    before, after = _applied(env, change), _applied(env, rewritten)
    if before != after:
        raise SideConditionViolated(
            f"rewrite is not a semantic no-op here: {env_str(before)} vs {env_str(after)}"
        )
    return [_leaf(node, change=rewritten)]


class Rule(Record, defaults={"required": ()}):
    """What one rule of the calculus means: the number of premises it
    makes; its premises function; its evidence function, which renders
    what an application establishes from the node (nothing there is
    checked, :func:`check` recomputes every premise instead); and the
    justification fields it requires besides the rule rationale."""

    __slots__ = ("arity", "premises", "evidence", "required")


def _no_evidence(node: DerivationNode) -> dict:
    return {}


def _installed(node: DerivationNode) -> dict:
    return {} if node.env_provisional else {"installed_env": env_str(node.premises[0].conclusion.env)}


RULES: dict[RuleId, Rule] = {
    RuleId.DELEGATION: Rule(
        1, _delegation, lambda node: {"trust": f"{node.conclusion.validator}->{node.args['delegate']}"},
        ("coordination_rationale", "validation_criteria")),
    RuleId.KNOWN_SOLUTION: Rule(
        0, _known_solution,
        lambda node: {"solution": change_str(node.args.get("solution", node.conclusion.change))}),
    RuleId.ENV_REFINE: Rule(1, _env_refine, _no_evidence),
    RuleId.NEED_REFINE: Rule(1, _need_refine, _no_evidence),
    RuleId.SOLN_REFINE: Rule(1, _soln_refine, _no_evidence),
    RuleId.DOMAIN_ADD: Rule(1, _bridging(m.Add), _installed),
    RuleId.DOMAIN_REMOVE: Rule(1, _bridging(m.Cancel), _installed),
    RuleId.DOMAIN_REFINE: Rule(1, _bridging(m.Refine), _installed),
    RuleId.PARALLEL: Rule(
        2, _parallel,
        lambda node: {"shared": [], "left": sorted(set(node.args["left"])),
                      "right": sorted(set(node.args["right"]))},
        ("dependency_argument",)),
    RuleId.SEQUENCE: Rule(
        2, _sequence, lambda node: {"intermediate_env": env_str(node.premises[1].conclusion.env)},
        ("dependency_argument", "timeline_rationale")),
    RuleId.SEQ_DOMAIN_REFINE_EQUIV: Rule(
        1, _seq_domain_refine_equiv,
        lambda node: {"before": change_str(node.conclusion.change),
                      "after": change_str(node.premises[0].conclusion.change)}),
    RuleId.SOLUTION_REFLECT: Rule(
        1, _solution_reflect,
        lambda node: {"shape": "seq" if isinstance(node.conclusion.need, m.NeedSeq) else "par"}),
}


def _expected(node: DerivationNode, mdl: Model) -> list[DerivationNode]:
    """The premises the node's rule application must have, as open
    leaves, which :func:`apply` installs and :func:`_replay` hands to
    :func:`rethread` and :func:`check`: always ``RULES[node.rule].arity``
    of them.  Raises RuleError when the rule's side conditions do not
    hold for the node's conclusion and arguments.
    """
    rule = RULES.get(node.rule)
    if rule is None:
        raise RuleError(f"unknown rule {node.rule!r}")
    return rule.premises(node, mdl)


def _replay(root: DerivationNode, mdl: Model) -> Iterator[tuple]:
    """Each node of the tree twice, with its path and whether it lies in an
    alternative: first with the node whose conclusion it must carry, itself
    or an alternative's node; then, after its alternatives' subtrees, with
    what :func:`_expected` makes of it: its premise leaves, which alone lead
    into its premises' subtrees, the RuleError raised, its rule's arity when
    it carries another number of premises, or None for an open leaf.  A caller
    may set the fields a later visit reads; the walk keeps its own stack."""
    stack = [(root, (), False, root)]
    while stack:
        node, path, in_alternative, found = stack.pop()
        if found is None and node.rule is not None:
            # an unknown rule goes on to _expected, which refuses it
            found = RULES[node.rule].arity if node.rule in RULES else len(node.premises)
            if found == len(node.premises):
                try:
                    found = _expected(node, mdl)
                except RuleError as err:
                    found = err
        yield node, path, in_alternative, found
        if isinstance(found, DerivationNode):
            stack.append((node, path, in_alternative, None))
            stack += [(alt, path + (("alt", k),), True, node)
                      for k, alt in enumerate(node.alternatives, 1)][::-1]
        elif isinstance(found, list):
            stack += [(child, path + (i,), in_alternative, child)
                      for i, child in enumerate(node.premises)][::-1]


def evidence(node: DerivationNode) -> dict:
    """What a rule application establishes, rendered from the node by its
    rule's evidence function; nothing for an open node."""
    rule = RULES.get(node.rule)
    return {} if rule is None else rule.evidence(node)


# --- applying rules -------------------------------------------------------------

def apply(rule: RuleId, node: DerivationNode, args: dict, mdl: Model) -> DerivationNode:
    """Apply a rule at an open leaf, creating its premise leaves.

    The conclusion is left untouched; side conditions are verified and
    the open leaves :func:`_expected` computes become the premises.
    """
    if node.rule is not None:
        raise NotOpen(f"rule already applied here: {getattr(node.rule, 'value', node.rule)}")
    if node.greenfield:
        raise NotOpen("greenfield obligations are discharged, not derived")
    candidate = node._replace(rule=rule, args=dict(args))
    return candidate._replace(premises=tuple(_expected(candidate, mdl)))


def rethread(node: DerivationNode, mdl: Model) -> DerivationNode:
    """Recompute premise conclusions top-down over the whole subtree, in
    place, and return ``node``: each premise takes the conclusion,
    greenfield marking and provisional environment of its leaf, and each
    alternative its node's conclusion and provisional environment, from
    :func:`_replay`.  One pass resolves provisional environments once
    earlier stages have committed their solutions: rethreading recomputes
    environments, which :func:`committed` does not read, so a first stage
    commits the same solution after it is rethreaded as before.

    :func:`build` calls it only on a second stage whose environment a
    statement has just resolved, in nodes it has made and not returned."""
    for below, _, _, found in _replay(node, mdl):
        if isinstance(found, DerivationNode):
            below.conclusion, below.env_provisional = found.conclusion, found.env_provisional
        elif isinstance(found, RuleError):
            raise found
        elif isinstance(found, list):
            for child, leaf in zip(below.premises, found):
                child.conclusion, child.greenfield, child.env_provisional = (
                    leaf.conclusion, leaf.greenfield, leaf.env_provisional)
    return node


# --- building trees from scripts ----------------------------------------------------

def _awaits_first_stage(node: DerivationNode, seg) -> bool:
    """Whether ``seg`` leads into the first stage of a Sequence whose
    second stage still waits for it."""
    return seg == 0 and node.rule is RuleId.SEQUENCE and node.premises[1].env_provisional


def build(script: DerivationScript, mdl: Model, problems: dict) -> DerivationNode:
    """Execute a derivation script statement by statement.

    Each statement's rule application, alternative or discharge is made
    at the node its path names and put into that node's parent in place:
    the tree is ``build``'s own until it returns, so no node above the
    target is copied.  A premise's conclusion depends only on its
    parent's conclusion, rule and arguments, and, in a Sequence, on the
    first stage's committed solution, so the statement changes nothing
    else unless it commits the first stage of Sequences on its path whose
    second stage waits for it.  Those are settled as rethreading the whole
    derivation would meet them: each one's threading is checked from the
    outermost inwards, then each second stage takes the leaf
    :func:`_expected` computes for it and is rethreaded, from the innermost
    outwards.  So the tree, and the first error, which names the
    statement's path, are those of a full rethread after every statement.
    """
    if script.problem_name not in problems:
        raise RuleError(f"derivation {script.name!r} names unknown problem {script.problem_name!r}")
    root = open_node(problems[script.problem_name])
    for index, stmt in enumerate(script.statements):
        path = stmt.path
        try:
            spine = _spine(root, path)
            if isinstance(stmt, ApplyStatement):
                new = _run_apply(stmt, spine[-1], mdl, index)
            else:
                new = _run_discharge(stmt, spine[-1], index)
            if path:
                _put(spine[-2], path[-1], new)
            else:
                root = new
            settled = [(seq, _expected(seq, mdl)[1]) for seq, seg in zip(spine, path)
                       if _awaits_first_stage(seq, seg) and _first_stage(seq) is not None]
            for seq, leaf in reversed(settled):
                second = seq.premises[1]
                second.conclusion, second.greenfield, second.env_provisional = (
                    leaf.conclusion, leaf.greenfield, leaf.env_provisional)
                rethread(second, mdl)
        except RuleError as err:
            raise err.at(path)
    return root


def _attach_marks(node: DerivationNode, stmt, index: int, target: ValidationTarget) -> DerivationNode:
    records = tuple(
        ValidationRecord(id=f"s{index}v{k}", stakeholder=mark.stakeholder, target=target,
                         status=ValidationStatus.GRANTED if mark.granted else ValidationStatus.REJECTED,
                         sequence=index)
        for k, mark in enumerate(stmt.validations)
    )
    return node._replace(
        justification=stmt.justification or node.justification,
        plan=node.plan + getattr(stmt, "plan", ()),
        validations=node.validations + records,
    )


def _run_apply(stmt: ApplyStatement, target: DerivationNode, mdl: Model, index: int) -> DerivationNode:
    alternative = stmt.marker == "alternative"
    base = (DerivationNode(target.conclusion, greenfield=target.greenfield,
                           env_provisional=target.env_provisional) if alternative else target)
    try:
        applied = apply(stmt.rule, base, stmt.args, mdl)
    except RuleError as err:
        raise err.at(stmt.path)
    applied = applied._replace(marker=stmt.marker)
    applied = _attach_marks(applied, stmt, index, ValidationTarget.SOLUTION_PLAN)
    return target._replace(alternatives=target.alternatives + (applied,)) if alternative else applied


def _run_discharge(stmt: DischargeStatement, target: DerivationNode, index: int) -> DerivationNode:
    if not target.greenfield:
        raise NotOpen(
            "only greenfield obligations can be discharged", stmt.path
        )
    if target.discharged:
        raise NotOpen("obligation already discharged", stmt.path)
    updated = target._replace(discharged=True)
    return _attach_marks(updated, stmt, index, ValidationTarget.GREENFIELD_DISCHARGE)


# --- lint: justification profiles and the plan graph -----------------------------------

def _plan_graph(root: DerivationNode, pairs: list | None = None) -> tuple:
    """One walk over a tree's plan, for :func:`lint` and :func:`extract_plan`:
    the :func:`preorder` visits; the entries, the steps outside alternatives,
    and ``home``, each id's first entry's visit; ``(later, earlier)`` edges,
    each entry's ``after`` and each head of a Sequence's second stage after
    each tail of its first, outside alternatives, whose closure holds every
    pair of stages (a transitive reduction: Aho, Garey and Ullman, 1972);
    the ids of entries used twice; DuplicateStep over the whole tree; and
    each visit's UnknownStep, where an entry names only entries, and
    :func:`_stage_findings`.  A subtree's heads are its steps and its
    premises' heads, a Sequence's first stage's, or its second's if that
    has none; tails likewise.  ``pairs``, when given, takes every pair of
    stages as an ``("after", later, earlier)`` constraint."""
    order = list(preorder(root))
    entries, edges, duplicated, reused, branch = [], [], [], [], []
    home, first_use = {}, {}
    for index, (node, path, in_alternative) in enumerate(order):
        for step in node.plan:
            if step.id in first_use:
                reused.append(CheckDiagnostic(path_str(path), "DuplicateStep", f"step id {step.id!r} "
                                              f"already used at {path_str(first_use[step.id])}"))
            else:
                first_use[step.id] = path
        if in_alternative:
            continue
        del branch[len(path):]
        above, sequenced = branch[-1] if path else (0, False)
        stage = above + 1 if sequenced and path[-1] == 1 else above
        branch.append((stage, node.rule is RuleId.SEQUENCE))
        for step in node.plan:
            if step.id in home:
                duplicated.append(step.id)
            home.setdefault(step.id, index)
            entries.append(PlanEntry(step, stage))
            edges += ((step.id, ref) for ref in step.after)
    findings = [None] * len(order)
    finished = []  # the steps, heads and tails of the latest-finished subtree on top
    for index in range(len(order) - 1, -1, -1):
        node, _, in_alternative = order[index]
        found = [("UnknownStep", f"step {step.id!r} references unknown step {ref!r}") for step in node.plan
                 for ref in step.after + step.parallel_ok if ref not in (first_use if in_alternative else home)]
        below = [finished.pop() for _ in node.premises + node.alternatives][:len(node.premises)]
        if len(below) == 2 and node.rule in (RuleId.SEQUENCE, RuleId.PARALLEL):
            (first, heads, tails), (second, later_heads, later_tails) = below
            found += _stage_findings(node, first, second)
            if node.rule is RuleId.SEQUENCE:
                below = [(first + second, heads or later_heads, later_tails or tails)]
                if not in_alternative:
                    edges += ((later.id, earlier.id) for later in later_heads for earlier in tails)
                    if pairs is not None:
                        pairs += (("after", later.id, earlier.id) for later in second for earlier in first)
        findings[index] = found
        steps = heads = tails = list(node.plan)
        for more in below:
            steps, heads, tails = steps + more[0], heads + more[1], tails + more[2]
        finished.append((steps, heads, tails))
    return order, entries, home, edges, duplicated, reused, findings


def _plan_order(entries: list[PlanEntry], edges: list, push, pop) -> list[PlanEntry]:
    """``entries``, each edge's earlier step first (Kahn, CACM 1962): a step
    whose earlier steps are placed waits, keyed ``(stage, id)``, in the queue
    ``push`` fills and ``pop`` empties; raises CycleDetected over the rest."""
    by_id = {e.step.id: e for e in entries}
    successors, waits = {}, dict.fromkeys(by_id, 0)
    for later, earlier in edges:
        if earlier in by_id:
            successors.setdefault(earlier, []).append(later)
            waits[later] += 1
    ready, ordered = [], []
    for sid, count in waits.items():
        if not count:
            push(ready, (by_id[sid].stage, sid))
    while ready:
        sid = pop(ready)[1]
        ordered.append(by_id[sid])
        for later in successors.get(sid, ()):
            waits[later] -= 1
            if not waits[later]:
                push(ready, (by_id[later].stage, later))
    if len(ordered) != len(by_id):
        raise CycleDetected([sid for sid, count in waits.items() if count])
    return ordered


class CheckDiagnostic(Record):
    __slots__ = ("path", "kind", "message")

    def __str__(self):
        return f"{self.path}: {self.kind}: {self.message}"


def _stage_findings(node: DerivationNode, first_steps: list[PlanStep],
                    second_steps: list[PlanStep]) -> list[tuple[str, str]]:
    """The ``(kind, message)`` findings of a Sequence or Parallel node
    whose premises' subtrees hold these plan steps."""
    first, second = {s.id for s in first_steps}, {s.id for s in second_steps}
    if not (first and second):
        return []
    crossing = [
        (s.id, ref)
        for s in (*node.plan, *first_steps, *second_steps)
        for ref in s.parallel_ok
        if (s.id in first and ref in second) or (s.id in second and ref in first)
    ]
    if node.rule is RuleId.PARALLEL:
        return [] if crossing else [
            ("MissingConstraint", "parallel branches must mark cross-branch steps parallel_ok")]
    found = []
    if not any(ref in first for s in second_steps for ref in s.after):
        found.append(("MissingConstraint", "sequenced stages must carry an 'after' constraint "
                                           "from the second stage onto the first"))
    if crossing:
        a, b = crossing[0]
        found.append(("ConflictingConstraint", f"steps {a!r} and {b!r} are in different stages "
                                               "and cannot be marked parallel_ok"))
    return found


def lint(root: DerivationNode) -> list[CheckDiagnostic]:
    """Justification-profile and plan checks, without replay.

    Duplicate step ids come first, then each node's findings in
    :func:`preorder`; a node's path is rendered only when it has one."""
    order, entries, home, edges, _, diagnostics, findings = _plan_graph(root)
    try:
        _plan_order(entries, edges, list.append, list.pop)
    except CycleDetected as err:  # found at the node of its first step
        findings[min(home[sid] for sid in err.stuck)].append(("CyclicPlan", str(err)))

    for index, (node, path, _) in enumerate(order):
        found = []
        if node.rule is not None:
            if not node.justification.rule_rationale:
                found.append(("MissingJustification", "ruleRationale is required"))
            for fld in getattr(RULES.get(node.rule), "required", ()):
                if not getattr(node.justification, fld):
                    found.append(("MissingJustification", f"{fld} is required for {node.rule.value}"))
        if len(node.plan) >= 2 and not node.justification.risk_register:
            found.append(("MissingJustification",
                          "a risk register is required for plan fragments of two or more steps"))
        found += findings[index]
        if found:
            where = path_str(path)
            diagnostics += (CheckDiagnostic(where, kind, message) for kind, message in found)
    return diagnostics


# --- checking --------------------------------------------------------------------

class Verdict(Record, defaults={"diagnostics": (), "open_items": ()}):
    __slots__ = ("kind", "diagnostics", "open_items")  # kind: Solved | Incomplete | Invalid

    @property
    def solved(self) -> bool:
        return self.kind == "Solved"


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

    def _check_validation(node, path, target):
        validator = node.conclusion.validator
        granted = [v for v in node.validations if v.status is ValidationStatus.GRANTED]
        wrong = [v for v in granted if v.stakeholder != validator]
        if wrong:
            note(path, "WrongValidator",
                 f"validation granted by {wrong[0].stakeholder!r}; "
                 f"only {validator!r} may validate this problem")
        if not any(v.stakeholder == validator and v.target is target for v in granted):
            what = ("greenfield discharge" if target is ValidationTarget.GREENFIELD_DISCHARGE
                    else "solution")
            note(path, "MissingValidation", f"{what} lacks a granted validation by {validator!r}")

    for node, path, in_alternative, found in _replay(root, mdl):
        if isinstance(found, DerivationNode):
            if node.conclusion != found.conclusion:
                note(path, "PremiseMismatch", "alternative does not share the node's conclusion")
            continue
        if node.alternatives and not in_alternative:
            if node.rule is not None and node.marker != "chosen":
                open_items.append(f"{path_str(path)}: alternatives exist but none is marked chosen")
            if any(a.marker == "chosen" for a in node.alternatives):
                note(path, "AmbiguousChoice", "a chosen application must occupy the node itself, "
                                              "not sit among the alternatives")
        if node.rule is None:
            if node.greenfield and node.discharged:
                _check_validation(node, path, ValidationTarget.GREENFIELD_DISCHARGE)
            elif not in_alternative:
                waits = "greenfield obligation awaiting discharge" if node.greenfield else "open leaf"
                open_items.append(f"{path_str(path)}: {waits}")
        elif isinstance(found, int):
            note(path, "ArityMismatch",
                 f"{node.rule.value} carries {len(node.premises)} premises, needs {found}")
        elif isinstance(found, RuleError):
            note(path, found.cause_kind or found.kind, str(found))
        else:
            for i, (child, leaf) in enumerate(zip(node.premises, found)):
                expected, stored = leaf.conclusion, child.conclusion
                # an environment pending an earlier stage is not compared
                if not (leaf.env_provisional or child.env_provisional) and stored.env != expected.env:
                    note(path + (i,), "ThreadingMismatch",
                         "environment threading mismatch: expected "
                         f"{env_str(expected.env)}, stored {env_str(stored.env)}")
                elif m.Problem(expected.env, stored.change, stored.validator, stored.need) != expected:
                    note(path + (i,), "PremiseMismatch", "stored premise disagrees with the rule application")
                if child.greenfield != leaf.greenfield:
                    note(path + (i,), "PremiseMismatch", "greenfield marking disagrees with the rule")
            if node.rule is RuleId.KNOWN_SOLUTION:
                _check_validation(node, path, ValidationTarget.SOLUTION_PLAN)
                if not node.env_provisional:
                    solution = node.args.get("solution", node.conclusion.change)
                    try:
                        m.apply_change(node.conclusion.env, solution)
                    except (m.ChangeError, m.ModelError) as err:
                        note(path, type(err).__name__, str(err))

    diagnostics.extend(lint(root))
    if diagnostics:
        return Verdict("Invalid", tuple(diagnostics), tuple(open_items))
    if open_items:
        return Verdict("Incomplete", (), tuple(open_items))
    return Verdict("Solved")


# --- plan extraction ----------------------------------------------------------------

class PlanEntry(Record):
    __slots__ = ("step", "stage")


class ImplementationPlan(Record):
    __slots__ = ("entries", "constraints")  # a constraint: ("after" | "parallel_ok", step, other)

    def step_ids(self) -> tuple[str, ...]:
        return tuple(e.step.id for e in self.entries)


def extract_plan(root: DerivationNode) -> ImplementationPlan:
    """Collect plan fragments depth-first and order them.

    Sequencing imposes delivery-order constraints between its stages
    (design work may overlap; delivery may not).  The result is a
    deterministic topological order, ties broken by stage then step id.
    """
    import heapq  # here, not at the top: a process that extracts no plan skips it

    solution = committed(root)
    if solution is None or not m.is_unknown_free(solution):
        raise UnsolvedTree("cannot extract a plan from an unsolved derivation")
    constraints = []
    _, entries, home, edges, duplicated, _, findings = _plan_graph(root, constraints)
    if duplicated:
        raise UnsolvedTree(f"plan step id {duplicated[0]!r} is used twice")
    stray = next((message for index in home.values() for kind, message in findings[index]
                  if kind == "UnknownStep"), None)
    if stray:
        raise UnsolvedTree(stray)
    constraints += ((kind, e.step.id, ref) for e in entries for kind in ("after", "parallel_ok")
                    for ref in getattr(e.step, kind))
    ordered = _plan_order(entries, edges, heapq.heappush, heapq.heappop)
    return ImplementationPlan(tuple(ordered), frozenset(constraints))


# --- tangles -----------------------------------------------------------------------

class TanglePair(Record):
    __slots__ = ("first", "second", "domains", "placeholders", "validators", "phenomena")

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
    """Environments of the greenfield obligations outside alternatives,
    in derivation order."""
    return tuple(
        node.conclusion.env for node, _, in_alternative in preorder(root)
        if node.greenfield and node.rule is None and not in_alternative
    )


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
    return _expected(probe, Model())[0].conclusion.change
