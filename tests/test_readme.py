"""README stays in step with the CLI it documents."""

import configparser
import re
from pathlib import Path

from lriga import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_flag_table_matches_cli_flags():
    rows = re.findall(r"^\| `([a-z-]+)` \| `(--[^`]*)` \|$", README, re.M)
    table = {command: flags.split() for command, flags in rows}
    want = {command: [flag for flag, _, _, _ in flags]
            for command, flags in cli.FLAGS.items()}
    assert table == want


def test_ini_example_loads(tmp_path):
    # the example is a config file as it stands: it loads, and so names
    # only sections and keys that DEFAULTS has
    blocks = re.findall(r"^```ini\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "example.ini"
    path.write_text(blocks[0], encoding="utf-8")
    cfg = cli.load_config(str(path))
    example = configparser.ConfigParser(interpolation=None)
    example.read_string(blocks[0])
    assert example.sections()
    for section in example.sections():
        for key in example[section]:
            assert key in cli.DEFAULTS[section], (section, key)
            assert cfg[section][key] == example[section][key]


def test_config_only_keys_match_cli():
    # the keys README says are "set only in the config file" are the
    # DEFAULTS keys that no subcommand flag and no top-level option sets
    sentence = re.search(r"([^.]*) are set only in the config file",
                         README).group(1)
    named = set()
    section = None
    for token in re.findall(r"`([^`]*)`", sentence):
        match = re.fullmatch(r"\[(\w+)\] (\w+)", token)
        if match:
            section, key = match.groups()
        else:
            key = token
        named.add("%s.%s" % (section, key))
    flagged = {dest for flags in cli.FLAGS.values() for _, dest, _, _ in flags}
    flagged |= {dest for dest in vars(cli.build_parser().parse_args([]))
                if "." in dest}
    config_only = {"%s.%s" % (s, k) for s in cli.DEFAULTS
                   for k in cli.DEFAULTS[s]} - flagged
    assert named == config_only
