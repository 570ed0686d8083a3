"""README's library quick start, run as written."""

from conftest import readme_quick_start


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(readme_quick_start(), "README.md", "exec"), namespace)
    # the same run as acceptance criterion 04
    assert namespace["onset"] == 308386
    assert capsys.readouterr().out.strip()
