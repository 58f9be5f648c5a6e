"""Output bytes of a fixed command corpus, pinned as SHA-256 digests.

Each command runs in process through ``cli.main``; its stdout must hash to
the digest below. The corpus covers every ``bound --thm``, every scenario
tag, all three figures and ``simulate --check`` of every scheme at a fixed
seed, so a refactor that changes any printed byte fails here. When a change
to the output is intended, re-pin the affected digest and say why.
"""
import hashlib

import pytest

from bayeslb import cli

GOLDEN = {
    "bound --thm 1 --I 2 --prior uniform01":
        "ae20c20b1a07a5468eb25aa748c76d7dc8828ba17f7ce5e507adadf0ebaac114",
    "bound --thm 1 --I 1 --prior gaussian --prior-var 2 --distortion squared --csv":
        "56016bf66f5eaa31cbe4cfc019cca380aa0aed27ab57583b2136a2d7478ff2da",
    "bound --thm 3 --I 0 --h 0 --d 1 --r 1":
        "a7d0a454b2fcad76d730af5c464d90d625cfefd9ba4d4573e00e4cb38859ee9c",
    "bound --thm 4 --I 2 --hx 3 --b 2 --capacity 0.5 --T 4 --eta-stat 0.8 --eta-uses 0.6 --csv":
        "6c06a2a7082579b12aed50a5ff79adbdf4cc64daef024244a51b2041193263fa",
    "bound --thm 5 --I 3 --i-single 1 --m 4 --b 2 --eta-stat 0.5 --eta-uses 0.9":
        "67d494b48aa2fbe2df7135a1b53b387549d97dc1f0d56925e4caafbc0e065f6c",
    "bound --thm 6 --outside 2 --i-cond 3 --b 1 --capacity 0.5 --T 3 --eta-s 0.7 --eta-uses 0.9":
        "7b85518cb4943c8bdd12770b00152c0eebc62dacbc2e41772b652507779cc5d2",
    "bound --thm 6 --outside 2 --i-cond 3 --b 1 --colocated --m 3 --noiseless":
        "6bab2e4c766b01e7f8e46f21b5783c3cbc30272b44db738f711bc205ac3a936e",
    "bound --thm 7 --alpha 0.5 --n 3 --m 2 --b 1 --I 4":
        "78ce8cbcfee523afb7cc78e47234f6bd5b47fe830bcb59f5ac02e26db7e2c80b",
    "scenario gauss-gauss --n 10 --var-w 2":
        "b92d847a0cdfc534322ffa011993afd4cd78f32379dcac0364baf07545187abe",
    "scenario bern-uniform --n 100":
        "98f42729ca2f8ed382f2d4cf026374d0babe6f66fff39b95b17cd5fe3c7c4959",
    "scenario gauss-ball --d 3 --n 50 --reps 200 --seed 5":
        "9d883938aaaa9d7d93cde9f135c66171df235503a9f1da186dfe0bc519b94d2a",
    "scenario bsc-bit --eps 0.1 --T 5":
        "ea4bf08e7bd1af748eda49c5d61b21964f65fc96606eabb9e3dcb838bd720f7e",
    "scenario hypercube --d 8 --delta 0.5 --b 4 --eps 0.1 --T 3 --p 0.3":
        "fad2a3777a1608ddaf9ff350e623496fb318a3fc58498653bdf0ac4e949e5b32",
    "scenario bern-bsc --n 100 --b 4 --eps 0.1 --T 70":
        "f7e1a7952c012bb856dd1de78488958351e369355f13aac7734ee6e897de9c61",
    "scenario bern-bsc --n 100 --b 4 --eps 0":
        "00542b7167ef6f53ae51ade7780388cdf6b6ce1e534fcb9ed66b562518f6e9f9",
    "scenario dglm --total-samples 100 --total-bits 50 --total-uses 40 --m 4 --eps 0.1":
        "14853477a25a3b3a4a26608fcde16f052ec59652a270db0a7b721c03f1fb6093",
    "scenario minimax-cube --d 4 --b 2 --m 3 --eps 0.1 --T 2":
        "16e9b92c55b0ae128d1fc09cea1ec9c5604718ca0216eb494c6060017488de01",
    "scenario ceo --d 2 --r 2 --alpha 0.1 --m 3 --eps 0.1":
        "64cd95adf47172b2904b80866a9c2b40a8ca04e74044848db37e7447ed054e07",
    "scenario ceo --d 1 --r 2 --var-w 0.001 --m 2 --alpha 100":
        "c64369ca7d71e09a6ea7e6690cd96ffb71e8ec969858a7afd71eef5f01436f08",
    "scenario xor --m 3 --n 16 --b 1":
        "713a1cb0c75d23e591a2343ff1007d8083b19322872d5d89beda7ccfd21051d0",
    "scenario hide-seek --m 10 --d 512 --b 1536 --rho 0.01 --n 100":
        "bb1a0ed28147f1ecc8e8ed31eaace0312ca4d41e1bff0d1ac146b442f2d4199f",
    "figure fig2":
        "27f30a16096a79413d985086622dbeda5d51da6bd00ef2638a837e581adbc407",
    "figure fig3":
        "282ca1b365fbfba4430d6bae54e56860b75e0f073e6bcaac6f9a3373c761b8ef",
    "figure fig4":
        "282842ae041110934dab2594d20abc8c5aa1eae7e06652040139e8422740c330",
    "simulate gauss-gauss --n 10 --reps 2000 --seed 7 --check":
        "e249a196903af87d53b6a0dcb3106d0ba52f819743ad36316f5f2f4520f5c8e3",
    "simulate bern-bsc --n 100 --b 4 --eps 0 --reps 2000 --seed 7 --check":
        "66f76cd688d6e84796afe3e91eca69f3a50aa0b397a024beb6207539e2ae8516",
    "simulate bern-bsc --n 100 --b 4 --eps 0.1 --T 70 --reps 2000 --seed 7 --check":
        "a7846faa2c1ecaf878e3a0a9e06f5d8156f1ac8a0b343dde4823bc54a59a945d",
    "simulate bsc-bit --eps 0.1 --T 5 --reps 2000 --seed 7 --check":
        "b9c8373fcd9624c155dd94143f25e928f1d9b72a7699bc6c96a5fa1b2d1086ed",
    "simulate xor --m 2 --n 100 --b 2 --reps 2000 --seed 7 --check":
        "ec597f2f65d3ecaeb8fe1f0786f8ff766a986106802e8405eb7cfb5920742cf2",
    "simulate xor-colocated --m 2 --n 100 --b 2 --reps 2000 --seed 7 --check":
        "bb57d0c635969774090848de1a4fc329548a2db0c84f2866a9e14cb06b99c3ba",
    "simulate gauss-multi --m 3 --n 5 --d 2 --reps 2000 --seed 7 --check":
        "c009228986f61802d0249c6f5be563b06faed9be901a7540dcf59358440517bd",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_are_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
