from duvlg.cli import cli_dispatch

# The audit is deterministic: like the golden hashes, these lines pin the
# micro configuration's finite-difference errors bit for bit.
EXPECTED = [
    "PASS\tl_dae_image\tmax_rel_error=1.032e-05\tworst=embed",
    "PASS\tl_dae_text\tmax_rel_error=7.817e-07\tworst=enc.0.attn.wq",
    "PASS\tl_mt_caption\tmax_rel_error=2.239e-06\tworst=dec.0.cross.bo",
    "PASS\tl_mt_t2i\tmax_rel_error=3.358e-05\tworst=embed",
    "PASS\tbeta*l_com\tmax_rel_error=4.578e-11\tworst=embed",
]


def test_gradcheck_command_audits_every_loss(capsys):
    assert cli_dispatch(["gradcheck"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[out.index("# end config") + 1:] == EXPECTED
