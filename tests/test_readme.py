import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_example_runs(capsys):
    # the "Python API" section's code block, run as written
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md (Python API)", "exec"), namespace)
    assert namespace["partials"][5] == namespace["result"].value
    assert capsys.readouterr().out.strip()
