"""Whole-project call graph over the :class:`FileContext` index.

Nodes are functions — module-level ``def``s, methods (keyed by their
class qualname), and one ``<module>`` pseudo-function per file for
import-time statements.  Edges come from ``ast.Call`` sites, resolved
through:

* the file's import aliases (``import repro.store.keys as k; k.f()``),
* ``from``-imports including aliased ones
  (``from repro.store.keys import fingerprint_payload as fp``),
* package ``__init__`` re-exports, followed transitively up to a small
  depth (``from repro.store import ResultStore`` finds
  ``repro.store.store.ResultStore``),
* ``self.``/``cls.`` method dispatch within the defining class,
* class instantiation (``Journal(path)`` edges to
  ``Journal.__init__``).

Anything else — method calls on arbitrary objects, callables passed as
values, inherited methods defined in another class — stays *unresolved*
but keeps its bare ``tail`` name so rules can apply conservative
fallbacks.  Recursive and mutually-recursive edges are ordinary edges;
the reachability walk is cycle-safe.

Nested function definitions are folded into their enclosing function:
their call sites count as the parent's (a sound over-approximation for
reachability — the closure cannot run unless the parent created it).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.check.engine import FileContext, dotted_name

#: Re-export chains (`from .store import ResultStore` in `__init__`)
#: are followed at most this many hops.
_EXPORT_DEPTH = 6


@dataclass(frozen=True)
class FunctionInfo:
    """One call-graph node: a function, method, or module body."""

    key: str          #: ``"repro.serve.server:CampaignJobServer._submit"``
    module: str       #: dotted module (``repro.serve.server``)
    qualname: str     #: ``Class.method`` / ``func`` / ``<module>``
    name: str         #: bare name (``_submit``)
    cls: Optional[str]  #: enclosing class qualname, if a method
    rel_path: str     #: repo-relative path of the defining file
    lineno: int

    @property
    def label(self) -> str:
        """Human form used in finding messages and chains."""
        return f"{self.module}.{self.qualname}"


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call`` with its resolution result."""

    lineno: int
    col: int
    targets: Tuple[str, ...]   #: resolved callee keys (usually 0 or 1)
    tail: Optional[str]        #: bare final name for fallback matching
    dotted: Optional[str]      #: import-resolved dotted text, if any
    call: ast.Call = field(compare=False, hash=False)


def body_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, skipping nested ``def`` bodies.

    Nested functions' calls are collected separately (and folded into
    the parent by :meth:`CallGraph.calls_of`), so direct walks stay
    attributable to real source lines of the enclosing scope.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Functions, methods and resolved call edges for one project."""

    def __init__(self, files: Iterable[FileContext]) -> None:
        self.files: List[FileContext] = list(files)
        #: dotted module -> its FileContext.
        self.modules: Dict[str, FileContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: (module, bare name) -> key, for top-level functions.
        self._top_level: Dict[Tuple[str, str], str] = {}
        #: (module, class qualname, method name) -> key.
        self._methods: Dict[Tuple[str, str, str], str] = {}
        #: (module, class qualname) -> True for every indexed class.
        self._classes: Set[Tuple[str, str]] = set()
        #: id(ast node) -> key, to map a def back to its node.
        self._key_of_node: Dict[int, str] = {}
        #: key -> the raw AST scope (function def or module).
        self._node_of_key: Dict[str, ast.AST] = {}
        #: key -> resolved call sites (lazy).
        self._calls: Dict[str, List[CallSite]] = {}
        #: key -> outgoing edges (lazy, derived from calls).
        self._edges: Dict[str, List[str]] = {}
        for file in self.files:
            self.modules.setdefault(file.module, file)
        for file in self.files:
            self._index_file(file)
        for file in self.files:
            self._resolve_file(file)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _register(
        self,
        file: FileContext,
        node: ast.AST,
        qualname: str,
        name: str,
        cls: Optional[str],
        lineno: int,
    ) -> None:
        key = f"{file.module}:{qualname}"
        if key in self.functions:  # redefinition: last one wins
            pass
        info = FunctionInfo(
            key=key,
            module=file.module,
            qualname=qualname,
            name=name,
            cls=cls,
            rel_path=file.rel_path,
            lineno=lineno,
        )
        self.functions[key] = info
        self._key_of_node[id(node)] = key
        self._node_of_key[key] = node
        if cls is None and qualname != "<module>":
            self._top_level[(file.module, name)] = key
        elif cls is not None:
            self._methods[(file.module, cls, name)] = key

    def _index_file(self, file: FileContext) -> None:
        # body_nodes (not tree.body): defs guarded by module-level
        # ``if``/``try`` blocks are still module-scope definitions.
        self._register(file, file.tree, "<module>", "<module>", None, 1)
        for node in body_nodes(file.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register(
                    file, node, node.name, node.name, None, node.lineno
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(file, node, node.name)

    def _index_class(
        self, file: FileContext, cls: ast.ClassDef, qual: str
    ) -> None:
        self._classes.add((file.module, qual))
        for node in body_nodes(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register(
                    file,
                    node,
                    f"{qual}.{node.name}",
                    node.name,
                    qual,
                    node.lineno,
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(file, node, f"{qual}.{node.name}")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_file(self, file: FileContext) -> None:
        module_key = f"{file.module}:<module>"
        self._calls.setdefault(module_key, [])
        for node in body_nodes(file.tree):
            if isinstance(node, ast.Call):
                self._calls[module_key].append(
                    self._resolve_call(file, node, None)
                )
            elif isinstance(node, ast.ClassDef):
                self._resolve_class(file, node, node.name)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._resolve_function(file, node, None)

    def _resolve_class(
        self, file: FileContext, cls: ast.ClassDef, qual: str
    ) -> None:
        module_key = f"{file.module}:<module>"
        for node in body_nodes(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._resolve_function(file, node, qual)
            elif isinstance(node, ast.ClassDef):
                self._resolve_class(file, node, f"{qual}.{node.name}")
            elif isinstance(node, ast.Call):
                # Class-body calls (field defaults, decorators spelled
                # inline) execute at import time: module scope.
                self._calls[module_key].append(
                    self._resolve_call(file, node, None)
                )

    def _resolve_function(
        self,
        file: FileContext,
        fn: ast.AST,
        cls: Optional[str],
    ) -> None:
        key = self._key_of_node[id(fn)]
        sites: List[CallSite] = []
        # ast.walk (not body_nodes): nested defs and lambdas fold into
        # the enclosing function's call set.
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                sites.append(self._resolve_call(file, node, cls))
        self._calls[key] = sites

    def _resolve_call(
        self, file: FileContext, call: ast.Call, cls: Optional[str]
    ) -> CallSite:
        targets: Tuple[str, ...] = ()
        tail: Optional[str] = None
        dotted: Optional[str] = None
        func = call.func
        # self.method() / cls.method() inside a class body.
        if (
            cls is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            tail = func.attr
            found = self._methods.get((file.module, cls, func.attr))
            if found is not None:
                targets = (found,)
            return CallSite(
                lineno=call.lineno,
                col=call.col_offset,
                targets=targets,
                tail=tail,
                dotted=None,
                call=call,
            )
        name = dotted_name(func)
        if name is not None:
            tail = name.split(".")[-1]
            dotted = file.resolve(func)
            if dotted is not None:
                found = self.resolve_dotted(file.module, dotted)
                if found is not None:
                    targets = (found,)
        elif isinstance(func, ast.Attribute):
            tail = func.attr
        return CallSite(
            lineno=call.lineno,
            col=call.col_offset,
            targets=targets,
            tail=tail,
            dotted=dotted,
            call=call,
        )

    def resolve_dotted(
        self, caller_module: str, dotted: str, depth: int = _EXPORT_DEPTH
    ) -> Optional[str]:
        """Resolve a dotted callable name to a function key, if local.

        ``dotted`` is the import-resolved text (``repro.store.keys.
        fingerprint_payload``; a bare ``helper`` for same-module calls).
        Class references resolve to the class's ``__init__`` method
        when one is indexed.
        """
        if depth <= 0:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            return self._resolve_in_module(
                caller_module, parts[0], depth
            )
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self.modules:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                return self._resolve_in_module(module, rest[0], depth)
            if len(rest) == 2:
                found = self._methods.get((module, rest[0], rest[1]))
                if found is not None:
                    return found
                # Maybe rest[0] is a re-exported class: follow it.
                exported = self._export_of(module, rest[0])
                if exported is not None:
                    return self.resolve_dotted(
                        caller_module,
                        f"{exported}.{rest[1]}",
                        depth - 1,
                    )
            return None
        return None

    def _resolve_in_module(
        self, module: str, name: str, depth: int
    ) -> Optional[str]:
        found = self._top_level.get((module, name))
        if found is not None:
            return found
        if (module, name) in self._classes:
            return self._methods.get((module, name, "__init__"))
        exported = self._export_of(module, name)
        if exported is not None:
            return self.resolve_dotted(module, exported, depth - 1)
        return None

    def _export_of(self, module: str, name: str) -> Optional[str]:
        """Follow a ``from x import name`` re-export in ``module``."""
        file = self.modules.get(module)
        if file is None:
            return None
        return file.from_imports.get(name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def key_of(self, node: ast.AST) -> Optional[str]:
        """The key registered for a ``def`` node, if indexed."""
        return self._key_of_node.get(id(node))

    def node_of(self, key: str) -> Optional[ast.AST]:
        return self._node_of_key.get(key)

    def file_of(self, key: str) -> Optional[FileContext]:
        info = self.functions.get(key)
        if info is None:
            return None
        return self.modules.get(info.module)

    def calls_of(self, key: str) -> List[CallSite]:
        return self._calls.get(key, [])

    def edges_of(self, key: str) -> List[str]:
        cached = self._edges.get(key)
        if cached is None:
            seen: Set[str] = set()
            cached = []
            for site in self.calls_of(key):
                for target in site.targets:
                    if target not in seen:
                        seen.add(target)
                        cached.append(target)
            self._edges[key] = cached
        return cached

    def reachable(
        self,
        roots: Iterable[str],
        barrier_modules: Tuple[str, ...] = (),
    ) -> Dict[str, Optional[str]]:
        """BFS closure over call edges: key -> parent key (None=root).

        ``barrier_modules`` prune the walk: functions whose module
        matches a barrier prefix are never entered (their bodies are
        not scanned and their callees stay unreached *through them*).
        """
        parents: Dict[str, Optional[str]] = {}
        queue: Deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for target in self.edges_of(current):
                if target in parents:
                    continue
                info = self.functions.get(target)
                if info is None:
                    continue
                if _in_barrier(info.module, barrier_modules):
                    continue
                parents[target] = current
                queue.append(target)
        return parents

    def chain(
        self, parents: Dict[str, Optional[str]], key: str, limit: int = 6
    ) -> str:
        """Render the root→``key`` path as ``a -> b -> c`` labels."""
        labels: List[str] = []
        cursor: Optional[str] = key
        while cursor is not None and len(labels) < limit:
            info = self.functions.get(cursor)
            labels.append(info.label if info is not None else cursor)
            cursor = parents.get(cursor)
        if cursor is not None:
            labels.append("...")
        return " -> ".join(reversed(labels))


def _in_barrier(module: str, barriers: Tuple[str, ...]) -> bool:
    return any(
        module == barrier or module.startswith(barrier + ".")
        for barrier in barriers
    )


__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "body_nodes",
]
