import json

import pytest

from faultgraph.config import load_config
from faultgraph.errors import ConfigError


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def minimal(tmp_path):
    corpus = tmp_path / "src"
    corpus.mkdir(exist_ok=True)
    return {
        "releases": [{"tag": "r1", "corpus": "src"}],
    }


def test_minimal_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, minimal(tmp_path)))
    assert cfg.releases[0].tag == "r1"
    assert cfg.releases[0].corpus == tmp_path / "src"
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.release_pairs == ()


def test_fixture_config_loads(fixtures_dir):
    cfg = load_config(fixtures_dir / "pipeline_config.json")
    assert [rc.tag for rc in cfg.releases] == ["r1", "r2"]
    assert cfg.filter_config.min_id == 100
    assert cfg.filter_config.excluded_intervals == ((300, 305),)
    assert cfg.release_pairs == (("r1", "r2"),)
    start, end = cfg.window_of("r1")
    assert start.year == 2007 and end.month == 6


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(path)


def test_release_needs_exactly_one_source(tmp_path):
    payload = minimal(tmp_path)
    payload["releases"][0].pop("corpus")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))
    payload["releases"][0]["corpus"] = "src"
    payload["releases"][0]["facts"] = "facts.jsonl"
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def test_missing_corpus_directory(tmp_path):
    payload = minimal(tmp_path)
    payload["releases"][0]["corpus"] = "absent"
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def test_duplicate_tags(tmp_path):
    payload = minimal(tmp_path)
    payload["releases"].append({"tag": "r1", "corpus": "src"})
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def test_pair_referencing_unknown_tag(tmp_path):
    payload = minimal(tmp_path)
    payload["release_pairs"] = [["r1", "r9"]]
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def test_window_start_after_end(tmp_path):
    payload = minimal(tmp_path)
    payload["releases"][0]["window"] = ["2008-01-01T00:00:00Z", "2007-01-01T00:00:00Z"]
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def test_missing_registry_message_names_stage(tmp_path):
    payload = minimal(tmp_path)
    payload["issue_registry"] = "absent.tsv"
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, payload))
    assert "bug_mapping" in str(err.value)


def test_window_required_for_bug_mapping(tmp_path):
    payload = minimal(tmp_path)
    cfg = load_config(write(tmp_path, payload))
    with pytest.raises(ConfigError):
        cfg.window_of("r1")


def fixture_payload(fixtures_dir):
    """The fixture config, made loadable from anywhere by absolute paths."""
    payload = json.loads((fixtures_dir / "pipeline_config.json").read_text())
    for rel in payload["releases"]:
        rel["corpus"] = str(fixtures_dir / rel["corpus"])
    for key in ("commit_log", "issue_registry"):
        payload[key] = str(fixtures_dir / payload[key])
    return payload


MISTYPED = [
    (("filter", "min_id"), "abc"),
    (("filter", "min_id"), True),
    (("filter", "excluded_intervals"), [[1, 2, 3]]),
    (("filter", "excluded_intervals"), [["a", "b"]]),
    (("filter", "excluded_intervals"), [[False, 3]]),
    (("filter", "patterns"), "bug (\\d+)"),
    (("filter",), []),
    (("output_dir",), 5),
    (("commit_log",), 5),
    (("issue_registry",), ["issues.tsv"]),
    (("releases", 0, "corpus"), 5),
    (("releases", 0, "corpus"), ""),
    (("releases", 0, "window"), [1, 2]),
    (("release_pairs",), 5),
]


@pytest.mark.parametrize("path, value", MISTYPED, ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in MISTYPED])
def test_a_mistyped_field_is_a_config_error_naming_it(tmp_path, fixtures_dir, path, value):
    payload = fixture_payload(fixtures_dir)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, payload))
    named = ".".join(k for k in path if k not in ("releases", 0))
    assert named in str(err.value)


@pytest.mark.parametrize(
    "tags, pairs, clash",
    [
        (["r 1", "r_1"], [], "'r_1'"),
        (["r1", "r1"], [], "'r1'"),
        (["a-b", "c", "a", "b-c"], [["a-b", "c"], ["a", "b-c"]], "'a-b-c'"),
        (["r1", "r2"], [["r1", "r2"], ["r1", "r2"]], "'r1-r2'"),
        (["x/1", "x:1", "y"], [["x/1", "y"]], "'x_1'"),
    ],
)
def test_two_tags_or_pairs_with_one_output_file_name_are_rejected(tmp_path, tags, pairs, clash):
    payload = minimal(tmp_path)
    payload["releases"] = [{"tag": tag, "corpus": "src"} for tag in tags]
    payload["release_pairs"] = pairs
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, payload))
    assert f"same output file name {clash}" in str(err.value)


def test_distinct_tags_with_distinct_file_names_load(tmp_path):
    payload = minimal(tmp_path)
    payload["releases"] = [{"tag": tag, "corpus": "src"} for tag in ("r 1", "r-1", "r.1")]
    payload["release_pairs"] = [["r 1", "r-1"], ["r-1", "r.1"], ["r 1", "r.1"]]
    cfg = load_config(write(tmp_path, payload))
    assert [rc.tag for rc in cfg.releases] == ["r 1", "r-1", "r.1"]


def _set(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


BAD_CONFIGS = {
    "window-timestamp": (
        lambda p: _set(p, ("releases", 0, "window"), ["2007-02-30T00:00:00Z", "2007-12-31T00:00:00Z"]),
        "bad window timestamp",
    ),
    "window-end-past-year-9999": (
        lambda p: _set(p, ("releases", 0, "window"), ["2007-01-01T00:00:00Z", "9999-12-31T23:59:59-01:00"]),
        "bad window timestamp",
    ),
    "release-not-an-object": (lambda p: _set(p, ("releases",), ["r1"]), "each release needs a non-empty string tag"),
    "facts-file-absent": (
        lambda p: _set(p, ("releases", 0), {"tag": "r1", "facts": "absent.jsonl"}),
        "facts file not found",
    ),
    "not-an-object": (lambda p: [p], "config must be a JSON object"),
    "no-releases": (lambda p: _set(p, ("releases",), []), "config needs a non-empty releases list"),
    "commit-log-absent": (lambda p: _set(p, ("commit_log",), "absent.tsv"), "commit log not found"),
    "pair-of-one": (lambda p: _set(p, ("release_pairs",), [["r1"]]), "each release pair must be [earlier, later]"),
    "min-id-0": (lambda p: _set(p, ("filter",), {"min_id": 0}), "min_id must be a positive integer"),
    "interval-backwards": (
        lambda p: _set(p, ("filter",), {"excluded_intervals": [[5, 3]]}),
        "excluded interval [5, 3] is not well-formed",
    ),
    "pattern-without-group": (
        lambda p: _set(p, ("filter",), {"patterns": ["bug \\d+"]}),
        "must have exactly one capture group",
    ),
}


@pytest.mark.parametrize("change, said", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_a_bad_config_is_a_config_error_saying_why(tmp_path, change, said):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, change(minimal(tmp_path))))
    assert said in str(err.value)
