"""Write the reference outputs in perfbench/refs/ from the current code.

    python3 perfbench/make_refs.py [assemble] [toolbox]

References are the certified integers of every `assemble` item and the exit
code and report sha256 of every `toolbox` CLI call, for each input variant
a seed can select.  They record the machine facts they were made with.
Regenerate them only when a change is meant to alter these outputs, and say
so in that change.
"""

import json
import sys

import machine


def _assemble(workloads):
    wl = workloads.Assemble(0)
    return {
        "p": workloads.DEGREE,
        "items": {
            item.args[1]: wl.summarize(item, wl.run(item)) for item in wl.items(0)
        },
    }


def _toolbox(workloads):
    variants = {}
    for variant in range(workloads.VARIANTS):
        wl = workloads.Toolbox(variant)
        wl.setup(last=True)
        entries = {}
        for item in wl.items(0):
            wl.before(item)
            result = wl.summarize(item, wl.run(item))
            entries[item.args[0]] = {"exit": result["exit"], "sha256": result["sha256"]}
        variants[str(variant)] = entries
    return {"variants": variants}


def main(argv):
    machine.prepare()
    import workloads

    makers = {
        "assemble": lambda: _assemble(workloads),
        "toolbox": lambda: _toolbox(workloads),
    }
    names = argv or sorted(makers)
    unknown = set(names) - set(makers)
    if unknown:
        print("unknown reference set(s): %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    facts = machine.facts()
    machine.REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        refs = {"facts": facts, **makers[name]()}
        with open(machine.REFS_DIR / ("%s.json" % name), "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote refs/%s.json" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
