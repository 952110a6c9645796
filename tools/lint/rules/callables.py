"""One callable type on the memory path.

Every LeakyHammer observation is a read completion that travels from a
requestor through ``sys::System``, the controller and the event kernel
and back. The kernel's ``sim::SmallFn`` (and member-bound
``sim::Event``) carries every such callback without touching the heap;
a ``std::function`` anywhere on that path re-introduces a second
type-erasure layer and a heap cell for any capture over 16 bytes. The
attack agents in ``src/attack`` issue every read of every figure, so
they are on the path too.
"""

from .base import Rule, in_dir

_MEMORY_PATH = ("src/sim", "src/dram", "src/ctrl", "src/sys",
                "src/defense", "src/attack")


class NoStdFunctionOnMemoryPath(Rule):
    rule_id = "no-std-function-on-memory-path"
    summary = ("std::function is banned in src/{sim,dram,ctrl,sys,"
               "defense,attack}; use sim::SmallFn or a bound sim::Event")

    def applies(self, relpath):
        return in_dir(relpath, *_MEMORY_PATH)

    def check(self, ctx):
        out = []
        toks = ctx.tokens
        for i in range(2, len(toks)):
            if toks[i].kind == "ident" and toks[i].text == "function" \
                    and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "std":
                out.append((toks[i].line,
                            "std::function on the memory path; use "
                            "sim::SmallFn or a bound sim::Event"))
        return out
